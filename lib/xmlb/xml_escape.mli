(** Escaping and unescaping of XML character data. *)

(** Escape text content: ampersand and angle brackets. *)
val text : string -> string

(** Escape attribute values (double-quote delimited): ampersand, angle
    brackets and the double quote. *)
val attribute : string -> string

(** [add_text buf s] appends {!text}[ s] to [buf], allocating nothing
    beyond the buffer's growth; {!add_attribute} likewise. *)
val add_text : Buffer.t -> string -> unit

val add_attribute : Buffer.t -> string -> unit

(** [xml_char cp] holds when [cp] matches XML 1.0's [Char] production
    (tab, newline, carriage return, and the code points from U+0020
    outside the surrogates, U+FFFE and U+FFFF). *)
val xml_char : int -> bool

(** A character reference whose digits are malformed or do not name an
    {!xml_char}; the payload is a message naming the reference. *)
exception Invalid_char_ref of string

(** Expand the predefined entities ([&amp;amp; &amp;lt; &amp;gt; &amp;quot;
    &amp;apos;]) and numeric character references ([&amp;#NN; &amp;#xHH;],
    encoded as UTF-8). A string without [&amp;] is returned as is.
    @raise Invalid_char_ref on a character reference to a non-character.
    @raise Failure on a malformed or unknown entity reference. *)
val unescape : string -> string

(** UTF-8 encode a Unicode code point.
    @raise Failure if the code point is out of range. *)
val utf8_of_code_point : int -> string

(** Decode a UTF-8 string into code points.
    @raise Failure on invalid UTF-8. *)
val code_points : string -> int list
