(** The pre-rewrite implication kernel, frozen as a test oracle.

    This is the positional union-find chase exactly as it shipped before the
    packed-bitset rewrite of {!Fast_impl}: per-rule [int] applicability
    masks (silently disabled past [Sys.int_size - 2] attributes), boxed
    [(position, pattern)] premise rows, and per-call allocation of the
    chase state.  Nothing in the pipeline calls it: it is the
    {e differential oracle} of the kernel-equivalence suite
    ([test/test_kernel.ml]), which calls it directly and requires the
    packed chase to agree with it on every query.

    Its observability counters are prefixed [fast_impl_ref.*] so they
    never mix with the packed kernel's tallies.  Do not optimise this
    module — its value is standing still. *)

open Relational

type compiled

val compile : Schema.relation -> Cfds.Cfd.t list -> compiled
val compile_ir : Ir.space -> Ir.t list -> compiled
val num_rules : compiled -> int

(** Masks are bytes over rule indices, byte [i] nonzero iff rule [i] is
    enabled — the same representation as {!Fast_impl.mask}. *)
type mask = Bytes.t

val full_mask : compiled -> mask
val mask_clear : mask -> int -> unit
val mask_set : mask -> int -> unit
val mask_mem : mask -> int -> bool

val implies : ?mask:mask -> ?fired:Bytes.t -> compiled -> Cfds.Cfd.t -> bool

val implies_ir :
  ?mask:mask -> ?fired:Bytes.t -> Ir.space -> compiled -> Ir.t -> bool
