(** Tables keyed by block number.

    Block numbers are dense and small (the global address space allocates
    them contiguously from 0), so a per-block table is an array indexed by
    block rather than a hash table: a lookup is two array loads, with no
    hashing and no key comparison.  The array is paged — fixed-size pages,
    each allocated on the first insert that lands in it — so a node that
    touches a few blocks at the far end of memory pays for those pages
    only.  The page directory itself is one word per page up to the
    highest block ever bound.

    Iteration is in ascending block order, which makes every walk over a
    table deterministic without sorting. *)

type 'a t

val create : unit -> 'a t
(** An empty table.  No page is allocated until the first insert. *)

val find_opt : 'a t -> int -> 'a option
(** [find_opt t b] is the value bound to block [b].  A hit returns the
    stored [Some v] itself and allocates nothing.
    @raise Invalid_argument if [b] is negative. *)

val mem : 'a t -> int -> bool
(** @raise Invalid_argument if the block is negative. *)

val replace : 'a t -> int -> 'a -> unit
(** [replace t b v] binds [b] to [v], replacing any previous binding.
    @raise Invalid_argument if [b] is negative. *)

val add : 'a t -> int -> 'a -> unit
(** [add t b v] binds a block that is not yet bound.
    @raise Invalid_argument if [b] is negative or already bound. *)

val remove : 'a t -> int -> unit
(** [remove t b] unbinds [b]; a no-op if it is unbound.  The page stays
    allocated.
    @raise Invalid_argument if [b] is negative. *)

val length : 'a t -> int
(** The number of bound blocks, in O(1). *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to every binding in ascending block order.  [f]
    may rebind blocks that are already bound; whether a block bound or
    unbound during the walk is visited is unspecified. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** [fold f t acc] folds over the bindings in ascending block order, with
    {!iter}'s rule for mutation during the walk. *)
