"""RP09 fixture: an early return that leaves its round timer armed."""


class LeakyClient:
    def start(self, effects, op_id):
        effects.start_timer(self._timer_id(op_id, "round"), self.timer_delay)

    def finish(self, effects, op_id):
        # Seeded violation: completes without cancel_timer.
        effects.complete(OperationComplete(op_id=op_id, kind="read", rounds=1))

    def finish_from_cache(self, effects, op_id):
        # Fine: a zero-round completion never started a round.
        effects.complete(OperationComplete(op_id=op_id, kind="read", rounds=0))


class TidyClient:
    def start(self, effects, op_id):
        effects.start_timer(self._timer_id(op_id, "round"), self.timer_delay)

    def finish(self, effects, op_id, expired):
        if not expired:
            effects.cancel_timer(self._timer_id(op_id, "round"))
        effects.complete(OperationComplete(op_id=op_id, kind="read", rounds=1))


class LeaseOnlyClient:
    def start(self, effects, lease_id, duration):
        # Not a round timer: it runs on a lease duration, not the synchrony bound.
        effects.start_timer(f"lease{lease_id}/expire", duration)

    def finish(self, effects, op_id):
        effects.complete(OperationComplete(op_id=op_id, kind="read", rounds=1))


class LeakySubclass(TidyClient):
    def finish_differently(self, effects, op_id):
        # Seeded violation: inherits the round timer, forgets it here.
        effects.complete(OperationComplete(op_id=op_id, kind="write", rounds=3))
