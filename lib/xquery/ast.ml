(** Abstract syntax for XQuery 1.0 + Update Facility + Scripting
    Extension + Full-Text subset + the paper's browser extensions
    (events, async [behind], CSS styles — §4.3–4.5). QNames are fully
    resolved against the in-scope namespaces at parse time. *)

open Xmlb

type axis =
  | Child
  | Descendant
  | Attribute_axis
  | Self
  | Descendant_or_self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding
  | Parent
  | Ancestor
  | Ancestor_or_self

type kind_test =
  | Any_kind
  | Text_kind
  | Comment_kind
  | Pi_kind of string option
  | Element_kind of Qname.t option
  | Attribute_kind of Qname.t option
  | Document_kind

type node_test =
  | Name_test of Qname.t
  | Wildcard
  | Ns_wildcard of string  (** resolved namespace URI *)
  | Local_wildcard of string
  | Kind_test of kind_test

type occurrence = Occ_one | Occ_optional | Occ_star | Occ_plus

type item_type =
  | It_atomic of Xdm_atomic.atomic_type
  | It_kind of kind_test
  | It_item

type seq_type = St_empty | St of item_type * occurrence

type value_comp = Eq | Ne | Lt | Le | Gt | Ge
type node_comp = Is | Precedes | Follows
type arith = Add | Sub | Mul | Div | Idiv | Mod
type quantifier = Some_quant | Every_quant
type insert_position = Into | As_first_into | As_last_into | Before | After
type event_binding = Bind_at | Bind_behind

type ft_selection =
  | Ft_words of expr * ft_option list
  | Ft_and of ft_selection * ft_selection
  | Ft_or of ft_selection * ft_selection
  | Ft_not of ft_selection

and ft_option = Ft_stemming

and order_spec = {
  key : expr;
  descending : bool;
  empty_greatest : bool option;  (** None = implementation default *)
}

(* [for $lv in lsource, $rv in rsource where lkey OP rkey (and
   jwhere)? order? return jreturn], executed by hashing the right
   (build) side on its key and probing with the left side's key.
   [general] distinguishes existential [=] from singleton [eq]; both
   keys are variable-rooted step paths, so their atoms are always
   xs:untypedAtomic and compare as strings under either operator. *)
and hash_join = {
  jleft_var : Qname.t;
  jleft_source : expr;
  jleft_key : expr;  (* sees jleft_var *)
  jright_var : Qname.t;
  jright_source : expr;
  jright_key : expr;  (* sees jright_var *)
  jgeneral : bool;
  jwhere : expr option;  (* residual conjuncts; see both variables *)
  jorder : order_spec list;
  jreturn : expr;
}

and flwor_clause =
  | For_clause of {
      var : Qname.t;
      pos_var : Qname.t option;
      var_type : seq_type option;
      source : expr;
    }
  | Let_clause of { var : Qname.t; var_type : seq_type option; value : expr }

and typeswitch_case = {
  case_var : Qname.t option;
  case_type : seq_type;
  case_body : expr;
}

and direct_attr_part = A_text of string | A_enclosed of expr

and statement =
  | S_var_decl of Qname.t * seq_type option * expr option
  | S_assign of Qname.t * expr
  | S_while of expr * statement list
  | S_break
  | S_continue
  | S_exit_with of expr
  | S_expr of expr

and expr =
  | E_literal of Xdm_atomic.t
  | E_var of Qname.t
  | E_context_item
  | E_sequence of expr list  (** comma operator; [] = empty sequence [()] *)
  | E_range of expr * expr
  | E_flwor of {
      clauses : flwor_clause list;
      where : expr option;
      order : order_spec list;
      return : expr;
    }
  | E_hash_join of hash_join
      (** planner-introduced equi-join over a two-[for] FLWOR; never
          produced by the parser *)
  | E_quantified of quantifier * (Qname.t * seq_type option * expr) list * expr
  | E_typeswitch of expr * typeswitch_case list * (Qname.t option * expr)
  | E_if of expr * expr * expr
  | E_or of expr * expr
  | E_and of expr * expr
  | E_value_comp of value_comp * expr * expr
  | E_general_comp of value_comp * expr * expr
  | E_node_comp of node_comp * expr * expr
  | E_ftcontains of expr * ft_selection
  | E_arith of arith * expr * expr
  | E_unary_minus of expr
  | E_union of expr * expr
  | E_intersect of expr * expr
  | E_except of expr * expr
  | E_instance_of of expr * seq_type
  | E_treat_as of expr * seq_type
  | E_castable_as of expr * Xdm_atomic.atomic_type * bool  (** optional? *)
  | E_cast_as of expr * Xdm_atomic.atomic_type * bool
  | E_root  (** leading [/] : root of the context node *)
  | E_step of axis * node_test * expr list  (** axis step with predicates *)
  | E_path of expr * expr  (** [e1/e2] *)
  | E_filter of expr * expr list  (** primary expression with predicates *)
  | E_call of Qname.t * expr list
  | E_ordered of expr
  | E_unordered of expr
  (* Constructors *)
  | E_direct_element of {
      name : Qname.t;
      attributes : (Qname.t * direct_attr_part list) list;
      children : expr list;  (** text runs become E_literal (String) *)
    }
  | E_text_literal of string  (** literal text inside a direct constructor *)
  | E_enclosed of expr  (** [{e}] inside a constructor *)
  | E_computed_element of expr * expr
  | E_computed_attribute of expr * expr
  | E_computed_text of expr
  | E_computed_comment of expr
  | E_computed_pi of expr * expr
  | E_computed_document of expr
  (* Update Facility *)
  | E_insert of insert_position * expr * expr  (** source, target *)
  | E_delete of expr
  | E_replace of { value_of : bool; target : expr; source : expr }
  | E_rename of expr * expr
  | E_transform of (Qname.t * expr) list * expr * expr
      (** copy $v := e (, ...) modify e return e *)
  (* Scripting Extension *)
  | E_block of statement list
  (* Browser extensions (paper §4.3–4.5) *)
  | E_event_attach of {
      event : expr;
      binding : event_binding;
      target : expr;
      listener : Qname.t;
    }
  | E_event_detach of { event : expr; target : expr; listener : Qname.t }
  | E_event_trigger of { event : expr; target : expr }
  | E_set_style of { property : expr; target : expr; value : expr }
  | E_get_style of { property : expr; target : expr }

type function_kind = F_plain | F_updating | F_sequential

type function_decl = {
  fname : Qname.t;
  params : (Qname.t * seq_type option) list;
  return_type : seq_type option;
  body : expr option;  (** [None] = external *)
  kind : function_kind;
}

type prolog_decl =
  | P_namespace of string * string
  | P_default_element_ns of string
  | P_default_function_ns of string
  | P_boundary_space_preserve of bool
  | P_variable of Qname.t * seq_type option * expr option
  | P_function of function_decl
  | P_option of Qname.t * string
  | P_module_import of {
      prefix : string option;
      uri : string;
      locations : string list;
    }

type module_decl = { mod_prefix : string; mod_uri : string; mod_port : int option }

type prog = {
  library_module : module_decl option;
  prolog : prolog_decl list;
  body : expr option;  (** main modules have a body *)
}

(** Is this expression updating, given [sub], the answer for each of its
    operands? The updating forms are, whatever their operands; a
    transform is when its [return] is (its modify clause updates only
    the copies), a full-text [contains] when its subject is, and a style
    read never is; any other form is when one of its operands is.
    {!is_updating} applies it all the way down; a bottom-up pass applies
    it once per node, with the answers it found for the operands. *)
let updating sub = function
  | E_insert _ | E_delete _ | E_replace _ | E_rename _ | E_block _ | E_event_attach _
  | E_event_detach _ | E_event_trigger _ | E_set_style _ ->
      true
  | E_literal _ | E_var _ | E_context_item | E_root | E_text_literal _ | E_get_style _ -> false
  | E_step (_, _, ps) -> List.exists sub ps
  | E_sequence es -> List.exists sub es
  | E_range (a, b)
  | E_path (a, b)
  | E_or (a, b)
  | E_and (a, b)
  | E_value_comp (_, a, b)
  | E_general_comp (_, a, b)
  | E_node_comp (_, a, b)
  | E_arith (_, a, b)
  | E_union (a, b)
  | E_intersect (a, b)
  | E_except (a, b)
  | E_computed_element (a, b)
  | E_computed_attribute (a, b)
  | E_computed_pi (a, b) ->
      sub a || sub b
  | E_if (c, t, e) -> sub c || sub t || sub e
  | E_flwor { clauses; where; order; return } ->
      List.exists
        (function For_clause { source; _ } -> sub source | Let_clause { value; _ } -> sub value)
        clauses
      || Option.fold ~none:false ~some:sub where
      || List.exists (fun o -> sub o.key) order
      || sub return
  | E_hash_join j ->
      sub j.jleft_source || sub j.jleft_key || sub j.jright_source || sub j.jright_key
      || Option.fold ~none:false ~some:sub j.jwhere
      || List.exists (fun o -> sub o.key) j.jorder
      || sub j.jreturn
  | E_quantified (_, binds, body) -> List.exists (fun (_, _, e) -> sub e) binds || sub body
  | E_typeswitch (e, cases, (_, dflt)) ->
      sub e || List.exists (fun c -> sub c.case_body) cases || sub dflt
  | E_ftcontains (e, _) -> sub e
  | E_unary_minus e
  | E_instance_of (e, _)
  | E_treat_as (e, _)
  | E_castable_as (e, _, _)
  | E_cast_as (e, _, _)
  | E_ordered e
  | E_unordered e
  | E_enclosed e
  | E_computed_text e
  | E_computed_comment e
  | E_computed_document e ->
      sub e
  | E_filter (e, ps) -> sub e || List.exists sub ps
  | E_call (_, args) -> List.exists sub args
  | E_direct_element { attributes; children; _ } ->
      List.exists
        (fun (_, parts) ->
          List.exists (function A_text _ -> false | A_enclosed e -> sub e) parts)
        attributes
      || List.exists sub children
  | E_transform (_, _, ret) -> sub ret

(** {!updating}, where [ops] are the operands found updating, told
    apart by physical equality. *)
let updating_with ops e =
  match ops with [] -> updating (fun _ -> false) e | l -> updating (fun x -> List.memq x l) e

(** Does evaluation of this expression (transitively, ignoring function
    bodies) contain updating constructs? {!updating} at every node of
    the expression; the optimizer and the lowering find the same once
    per node. *)
let rec is_updating e = updating is_updating e
