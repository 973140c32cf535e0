(** A miniature file system over the NVMe device (the "file system
    service" of §2's microkernel story).

    Flat namespace, 4 KiB blocks, write-through block I/O with an LRU
    block cache.  Contents are not materialized — the simulator cares
    about timing and block traffic, not bytes — but sizes, block
    allocation and cache behaviour are fully modelled.

    All operations execute {e on} a hardware thread (they consume CPU
    cycles and block on device completions via monitor/mwait), so they
    must be called from inside a thread body — typically the FS service
    thread of a microkernel (see [examples/microkernel_fs.ml]). *)

exception Fs_error of string

type t

val create :
  Switchless.Chip.t -> Sl_dev.Nvme.t -> ?cache_blocks:int -> unit -> t
(** An empty, formatted file system backed by the given device.
    [cache_blocks] (default 64) is the block-cache capacity. *)

val mkfile : t -> Switchless.Isa.thread -> name:string -> unit
(** Raises {!Fs_error} if the name exists. *)

val append : t -> Switchless.Isa.thread -> name:string -> bytes:int -> unit
(** Extend the file, allocating blocks and writing them through to the
    device.  Raises {!Fs_error} on unknown names. *)

val read : t -> Switchless.Isa.thread -> name:string -> int
(** Read the whole file (through the cache); returns its size in bytes. *)

val delete : t -> Switchless.Isa.thread -> name:string -> unit
(** Remove the file and recycle its blocks (cache entries invalidated). *)

val stat : t -> name:string -> (int * int) option
(** [(size_bytes, block_count)], without consuming cycles (metadata is
    in-memory here). *)

val list_files : t -> string list
(** Sorted names. *)

val cache_hits : t -> int
val cache_misses : t -> int
val device_reads : t -> int
val device_writes : t -> int
