(** A shared snooping bus: the interconnect model behind the MSI/MESI/MOESI
    policy family.

    One transaction occupies the bus at a time.  A transaction requested at
    cycle [at] is granted at [max at (busy_until t)] — the difference is
    accounted as arbitration stall ([bus.arb_stall_cycles]) — and holds the
    bus for [msg_fixed + words * msg_per_word] cycles, the same wire cost
    the point-to-point network charges minus per-hop switching (a bus has
    no switches).  The completion callback runs when the occupancy ends, so
    each transaction's snoop-side state changes are atomic with respect to
    the next grant: the protocol layer can read and update every cache's
    state inside the callback without intervening traffic.

    The bus is a {e reliable} medium: fault plans ({!Faults}) model lossy
    point-to-point links and deliberately do not apply here — every agent
    observes a snooping transaction by construction.

    Counters: [bus.transactions], [bus.rd]/[bus.rdx]/[bus.upgr]/[bus.flush]
    (per kind), [bus.arb_stall_cycles], [bus.busy_cycles].  Snoop-hit and
    cache-to-cache counters belong to the protocol layer, which knows what
    the snoop found. *)

type kind =
  | Rd  (** read miss: fetch a shared copy *)
  | Rdx  (** write miss: fetch an exclusive copy, invalidating others *)
  | Upgr  (** upgrade a held shared copy to exclusive (no data transfer) *)
  | Flush  (** writeback of a dirty evicted line *)

val kind_to_string : kind -> string

type t

val create :
  engine:Lcm_sim.Engine.t ->
  costs:Lcm_sim.Costs.t ->
  stats:Lcm_util.Stats.t ->
  unit ->
  t

val busy_until : t -> int
(** The cycle at which the bus next becomes free. *)

val occupancy : t -> words:int -> int
(** Cycles a [words]-word transaction holds the bus. *)

val transact_call :
  t -> kind:kind -> at:int -> words:int -> ('a -> int -> int -> unit) -> 'a ->
  int -> unit
(** [transact_call t ~kind ~at ~words h p x] queues a transaction
    requested at cycle [at]; [h p now x] runs when its bus occupancy
    completes ([now] is that cycle).  Grants are in request order.  The
    grant handler is {e preallocated}: the triple rides the engine's
    pooled event ({!Lcm_sim.Engine.schedule_call}), so a steady-state bus
    transaction allocates nothing.  [p] is the handler's payload and [x]
    an integer rider (a packed requester/block descriptor).  The bus
    reports no progress to the engine's stall watchdog; a handler that
    completes a transaction does that itself. *)
