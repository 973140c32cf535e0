(** Architectural register state of one hardware thread.

    Mirrors the x86-64 context the paper budgets for: 16 general-purpose
    registers, instruction pointer, flags, and — when the thread uses
    vector code — 16 × 256-bit vector registers (modelled as a single
    64-bit lane each; the simulator cares about footprint and remote
    access semantics, not SIMD arithmetic).  Two novel control registers
    from §3.1: the exception-descriptor pointer and the thread-descriptor-
    table base.

    A context is one flat buffer of 64-bit words, sized to the
    registers it models (GP, rip, rflags and the two control registers,
    plus the vector lanes of a vector context) and written unboxed.  The
    buffer is allocated by the first write: until then every register
    reads [0L], and the context holds no register storage, so the
    thousands of contexts a parked core keeps cost the heap a few words
    each.  The storage the model charges is {!footprint_bytes}, not the
    buffer's size. *)

type reg =
  | Gp of int  (** General-purpose register 0–15 (rsp is [Gp 4]). *)
  | Rip
  | Rflags
  | Vector of int  (** Vector register 0–15; only on vector contexts. *)
  | Exception_descriptor_ptr
      (** Where hardware writes an exception descriptor when this thread
          becomes disabled by a fault; [0] means "no handler". *)
  | Tdt_base  (** Location of this thread's thread-descriptor table. *)

type t

val create : ?vector:bool -> unit -> t
(** Fresh zeroed context, with no buffer until its first write.
    [vector] (default [false]) selects the larger 784-byte footprint. *)

val footprint_bytes : Params.t -> t -> int
(** 272 or 784 bytes under the default parameters. *)

val get : t -> reg -> int64
(** Raises [Invalid_argument] for out-of-range register numbers or vector
    access on a non-vector context. *)

val set : t -> reg -> int64 -> unit
(** Raises as {!get} does.  The first write allocates the buffer. *)

val copy : t -> t
(** An independent context with the same register values. *)

val is_privileged_reg : reg -> bool
(** Control registers that only supervisor-mode threads (or callers with
    no restriction, via rpush from supervisor mode) may modify:
    {!Exception_descriptor_ptr} and {!Tdt_base}. *)

val modify_some_allows : reg -> bool
(** Registers writable under the TDT "modify some registers" permission
    bit: general-purpose registers only. *)

val modify_most_allows : reg -> bool
(** Registers writable under the "modify most registers" bit: everything
    except the privileged control registers. *)

val pp_reg : Format.formatter -> reg -> unit
