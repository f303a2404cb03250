(** Page loading: the paper's processing model (§4.1, Fig. 1).

    An (X)HTML page is parsed into the DOM, the page renders, and each
    [<script>] element runs: JavaScript first, then XQuery — "this is
    the way browsers do it because JavaScript is supported natively"
    (§4.1). XQuery scripts share one static and dynamic context per
    window (prolog + main query); running them registers event
    listeners; afterwards the browser loops dispatching events to
    listeners.

    Other script languages plug in through {!register_script_engine}
    (the [minijs] library registers ["text/javascript"]), which is how
    the paper's co-existence story (§6.2) is modelled. *)

type script_engine =
  Browser.t -> Windows.t -> script_element:Dom.node -> source:string -> unit

(** Register an engine for a [type] attribute value (e.g.
    ["text/javascript"]). XQuery types ([text/xquery], [text/xqueryp])
    are built in. *)
val register_script_engine : script_type:string -> script_engine -> unit

(** Providers for inline [on*] handler attributes, tried in
    registration order; the first that returns [true] owns the
    handler. The XQuery compiler is the built-in fallback. The JS
    engine registers a provider so pages can mix
    [onclick="buy(event)"] (JS) with [onkeyup="local:f(value)"]
    (XQuery), as the mash-up scenario requires. *)
val register_inline_handler_provider :
  (Browser.t ->
  Windows.t ->
  element:Dom.node ->
  event_type:string ->
  source:string ->
  bool) ->
  unit

(** Load a page into a window (default: the browser's top window):
    parse (honouring the IE upper-casing quirk), install the document,
    run scripts, wire inline [on*] handlers (e.g. the [onkeyup] of the
    §4.4 AJAX example) as listeners. Also installs the browser's
    navigation hook so [replace value of node $w/location/href …]
    re-loads pages through the simulated network. *)
val load : ?window:Windows.t -> Browser.t -> string -> unit

(** Fetch a page over the simulated network and {!load} it. The fetch
    goes through the browser's {!Retry} policy ([Browser.t.retry]), so
    transient faults are retried with backoff; a final failure raises
    [SEBR0404]. *)
val browse : ?window:Windows.t -> Browser.t -> string -> unit

(** The shared XQuery dynamic context of a window's page, if the page
    had XQuery scripts or [on*] handlers compiled as XQuery; [None] for
    a page that needs none (tests use this to poke at page state). *)
val xquery_context : Windows.t -> Xquery.Dynamic_context.t option

(** Compile and run one XQuery source against a window's current page,
    creating or reusing the page context. Returns the result sequence
    (updates are applied). *)
val run_xquery : Browser.t -> Windows.t -> string -> Xdm_item.sequence
