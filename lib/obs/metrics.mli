(** Monotonic counters and summary histograms, always on.

    A process-wide registry of handles keyed by metric name (dotted
    taxonomy, e.g. ["eval.steps"], ["retry.backoff_s"]). Each module
    registers its handles once, when it is initialised; registering a
    name again returns the same handle, so the registry holds one cell
    per name in the code, however much data runs through it. Counting
    an event is one field add that allocates nothing. *)

type counter

val counter : string -> counter

(** A primitive, so every call site compiles to one inlined add, also
    across modules. *)
external incr : counter -> unit = "%incr"

val add : counter -> int -> unit
val value : counter -> int

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit

(** A histogram summary. [buckets.(i)] counts observations [<=
    10^(i-6)] for [i] up to 8; the final cell counts the overflow. *)
type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

(** The non-zero counters and the histograms with an observation,
    sorted by name. *)
val counters : unit -> (string * int) list

val histograms : unit -> (string * summary) list

(** Zero every counter and histogram; handles stay valid. *)
val reset : unit -> unit

(** Does nothing: counting is always on. Kept only because the
    benchmark harness ([perfbench/xqib_perf.ml]) still calls it. *)
val set_enabled : bool -> unit

(** The whole registry as a JSON document:
    [{"counters": {...}, "histograms": {...}}]. *)
val to_json : unit -> string
