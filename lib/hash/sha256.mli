(** Self-contained SHA-256 / HMAC-SHA256, the shared crypto primitive behind
    extension signing ({!Rustlite.Sign}), content-addressed program digests
    ({!Ebpf.Program.digest}) and the load-path verdict cache
    ({!Framework.Verdict_cache}).  Dependency-free by design: one
    implementation, one set of bytes, everywhere. *)

val digest : string -> string
(** Raw 32-byte SHA-256 digest. *)

val to_hex : string -> string

val hex_digest : string -> string
(** [to_hex (digest msg)], the 64-char content address of [msg]. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256, raw 32-byte MAC. *)

val calls : unit -> int
(** SHA-256 computations since start-up, over all domains: one per
    {!digest} or {!hex_digest}, two per {!hmac} with a short key.  Tests
    read the difference across a call to count the hashes it made. *)
