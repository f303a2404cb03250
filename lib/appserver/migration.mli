(** Server-to-client migration of XQuery page programs — the Reference
    2.0 technique of §6.1:

    - the prolog of the server page is moved verbatim into a
      [<script type="text/xquery">] tag;
    - the contents enclosed in the outermost element constructors
      (formerly computed by the server) are removed, replaced by
      placeholder slots, and re-emitted as [insert] expressions run by
      the client when the page loads;
    - [fn:doc(...)] calls are rewritten to [rest:get(...)] against the
      server's whole-document REST interface (the store serves whole
      documents "to better enable caching"). *)

(** [migrate ~doc_base source] transforms a server page program into a
    client-side HTML page string. [doc_base] is the URI prefix
    documents are served under (e.g.
    ["http://www.elsevier.example/docs/"]).
    @raise Xq_error.Error if the page body is not an element
    constructor. *)
val migrate : doc_base:string -> string -> string

(** Convenience: migrate a page registered on an app server and serve
    the result as a static page at [client_path]. Returns the client
    page text. *)
val migrate_server_page :
  App_server.t -> path:string -> client_path:string -> string
