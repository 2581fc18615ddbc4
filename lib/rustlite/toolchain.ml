(* The trusted userspace toolchain: type check -> ownership check -> sign.

   Only extensions that pass both checkers get a signature; the kernel-side
   loader (Framework.Pipeline) validates the signature and loads without any
   in-kernel verification — the architecture of the paper's Figure 5. *)

module Bpf_map = Maps.Bpf_map

type source = {
  name : string;
  maps : Bpf_map.def list; (* maps the extension declares (by name) *)
  body : Ast.expr;
}

type signed_extension = {
  src : source;
  payload : string;       (* what was signed: name + maps + canonical body *)
  signature : Sign.signature;
}

type error =
  | Type_error of Typeck.error
  | Ownership_error of Ownck.error

let pp_error ppf = function
  | Type_error e -> Format.fprintf ppf "type error at %s: %s" e.Typeck.where_ e.Typeck.what
  | Ownership_error e ->
    Format.fprintf ppf "ownership error at %s: %s" e.Ownck.where_ e.Ownck.what

let serialize_map (d : Bpf_map.def) =
  Printf.sprintf "(map %s %s %d %d %d)" d.Bpf_map.name
    (Bpf_map.kind_to_string d.Bpf_map.kind) d.Bpf_map.key_size d.Bpf_map.value_size
    d.Bpf_map.max_entries

let payload_of (src : source) =
  Printf.sprintf "(extension %s (maps %s) %s)" src.name
    (String.concat " " (List.map serialize_map src.maps))
    (Ast.serialize src.body)

(* The toolchain's signing key.  In the real design this is the private half
   of a keypair whose public half the kernel trusts via secure boot / IMA;
   the shared-MAC simplification does not change the load-time protocol. *)
let toolchain_key = "untenable-trusted-toolchain-key-v1"

let compile (src : source) : (signed_extension, error) result =
  match Typeck.check src.body with
  | Error e -> Error (Type_error e)
  | Ok _ty -> (
    match Ownck.check src.body with
    | Error e -> Error (Ownership_error e)
    | Ok () ->
      let payload = payload_of src in
      Ok { src; payload; signature = Sign.sign ~key:toolchain_key payload })

(* Canonical content digest of a signed artifact: recomputed from the payload
   that actually arrived (not the signature's claim), so a tampered artifact
   gets a different address.  Shares the digest space of Ebpf.Program.digest:
   both are SHA-256 hex over the canonical serialization. *)
let artifact_digest (ext : signed_extension) : string =
  Hash.Sha256.hex_digest ext.payload

(* Kernel-side validation: recompute the payload from what arrived and check
   the MAC.  Tampering with the AST after signing changes the payload. *)
let validate (ext : signed_extension) : bool =
  let payload = payload_of ext.src in
  String.equal payload ext.payload
  && Sign.validate ~key:toolchain_key payload ext.signature
