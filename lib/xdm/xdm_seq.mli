(** Lazy pull-cursors over XDM sequences, the streaming pipeline's
    currency. A cursor is an [Xdm_item.item Seq.t] plus a static flag
    derived from the producing expression: [sorted] — the items are
    distinct nodes in document order, so consumers (notably path
    combination) can skip the {!Xdm_item.document_order} re-sort.

    Cursors are single-shot; pulls from cold producers and
    materialisations are counted on the [xdm.seq.pulls] /
    [xdm.seq.materializations] {!Obs.Metrics} counters. *)

type t

val make : ?sorted:bool -> Xdm_item.item Seq.t -> t
(** Wrap a sequence without pull counting (already-materialised or
    derived producers). [sorted] defaults to [false]. *)

val of_seq : ?sorted:bool -> Xdm_item.item Seq.t -> t
(** Wrap a cold producer; every delivered item bumps [xdm.seq.pulls]. *)

val of_node_seq : ?sorted:bool -> Dom.node Seq.t -> t
val of_list : ?sorted:bool -> Xdm_item.sequence -> t
val empty : t
val singleton : Xdm_item.item -> t
val items : t -> Xdm_item.item Seq.t
val sorted : t -> bool

val to_list : t -> Xdm_item.sequence
(** Drain the cursor; bumps [xdm.seq.materializations]. *)

val head : t -> Xdm_item.item option
val is_empty : t -> bool

val take : int -> t -> t
(** First [n] items ([n <= 0] gives the empty cursor). *)

val filteri : (int -> Xdm_item.item -> bool) -> t -> t
val append : t -> t -> t

val effective_boolean : t -> bool
(** EBV with a bounded pull (≤ 2 items); semantics — and errors —
    match {!Xdm_item.effective_boolean}. *)
