(** What is left of the retired global name table.

    Names are plain strings ({!Qname.t}); nothing interns them, so no
    table grows with the names a process reads. *)

(** Always 0. Kept only because the benchmark harness
    ([perfbench/workloads.ml]) still reads it for its
    [xmlb.sym_entries] metric. *)
val size : unit -> int
