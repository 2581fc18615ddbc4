(** The trusted userspace toolchain of §3.1: type check, ownership check,
    sign.  Only extensions that pass both checkers get a signature; the
    kernel-side loader ({!Framework.Pipeline.load_rustlite}) validates the
    signature and performs no analysis of its own — the architecture of
    the paper's Figure 5. *)

type source = {
  name : string;
  maps : Maps.Bpf_map.def list; (** maps the extension declares, by name *)
  body : Ast.expr;
}

type signed_extension = {
  src : source;
  payload : string;        (** the canonical serialization that was signed *)
  signature : Sign.signature;
}

type error =
  | Type_error of Typeck.error
  | Ownership_error of Ownck.error

val pp_error : Format.formatter -> error -> unit

val payload_of : source -> string

val toolchain_key : string
(** The signing key.  In the real design this is the private half of a
    keypair whose public half the kernel trusts via secure boot/IMA; the
    shared-MAC simplification does not change the load-time protocol. *)

val compile : source -> (signed_extension, error) result
(** typecheck -> ownership check -> sign. *)

val artifact_digest : signed_extension -> string
(** Canonical content address of a signed artifact: SHA-256 hex recomputed
    over the payload that actually arrived (tampering changes it). *)

val validate : signed_extension -> bool
(** Kernel-side: recompute the payload from what arrived and check the MAC;
    any post-signing mutation fails. *)
