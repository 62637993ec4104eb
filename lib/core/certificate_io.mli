(** Serialisation and independent verification of lower-bound
    certificates.

    A certificate chain produced by {!Lower_bound.run} can be written to
    disk and later re-verified from scratch — against the graphs alone
    (view isomorphism + structural claims), or additionally against the
    algorithm (re-running it and comparing the claimed outputs). This
    separates certificate {e checking} from certificate {e generation},
    the usual standard for a verifiable artifact. Verification uses the
    checker kernel [Ld_check], not the refinement code that produced the
    certificates. *)

(** Serialise a certificate chain: the magic ["LDC1"], the MD5 of the
    payload, then the payload — a count and that many
    {!certificate_to_binary} records. *)
val to_string : Lower_bound.certificate list -> string

(** Inverse of {!to_string}; round-trips every field, [views_checked]
    included.
    @raise Failure on a bad magic, a digest mismatch (any changed,
    missing or extra byte) or a malformed payload. *)
val of_string : string -> Lower_bound.certificate list

val save : string -> Lower_bound.certificate list -> unit

(** @raise Failure as {!of_string}. *)
val load : string -> Lower_bound.certificate list

(** {2 Binary codecs}

    Certificate files and the persistent certificate store
    ({!Cache_store}, which serialises whole constructions — certificates
    plus every recorded probe, megabytes at level 18) share one compact
    binary layout: 64-bit little-endian ints, length-prefixed strings
    ([Q.to_string] rationals), count-prefixed arrays. The certificate
    codec round-trips [views_checked], so a reloaded construction is
    field-for-field identical to the one that was saved.

    Encoders append to a [Buffer.t]; decoders read from a string at
    [!pos] and advance it. Decoders raise [Failure] on truncated or
    malformed input — never an out-of-bounds exception. *)

val certificate_to_binary : Buffer.t -> Lower_bound.certificate -> unit

(** @raise Failure on malformed input. *)
val certificate_of_binary : string -> pos:int ref -> Lower_bound.certificate

val probe_to_binary : Buffer.t -> Lower_bound.probe -> unit

(** @raise Failure on malformed input (including an output whose weight
    counts do not match its probe graph). *)
val probe_of_binary : string -> pos:int ref -> Lower_bound.probe

(** What independent verification established for one level. *)
type check = {
  chk_level : int;
  chk_structure : bool;
      (** the named loops exist, with the stated colour, at the stated
          nodes; P2 loopiness and P3 tree-shape hold for the stated Δ *)
  chk_views : bool;
      (** radius-[level] views at the distinguished nodes are isomorphic
          (recomputed by [Ld_check]'s list-based colour refinement) *)
  chk_weights_differ : bool;
  chk_outputs : bool option;
      (** when an algorithm is supplied: re-running it reproduces the
          claimed loop weights on both graphs ([None] if not re-run) *)
}

val check_ok : check -> bool

(** [verify ?algorithm ~delta certs] re-checks every level. *)
val verify :
  ?algorithm:Lower_bound.algorithm -> delta:int ->
  Lower_bound.certificate list -> check list

val pp_check : Format.formatter -> check -> unit
