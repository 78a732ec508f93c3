"""RP10 fixture: messages built without their register in a ``core/`` path."""


class ForgetfulServer:
    def on_read(self, effects, message):
        # Seeded violation: the reply leaves with the default register "".
        effects.send(message.sender, ReadAck(sender=self.process_id, read_ts=message.read_ts))

    def on_write(self, effects, message):
        # Fine: born addressed.
        effects.send(
            message.sender,
            WriteAck(sender=self.process_id, register_id=self.register_id, ts=message.ts),
        )


class ForgetfulHolder:
    def acquire(self, effects, lease_id):
        # Seeded violation: a lease role's bound class builds a message too.
        effects.broadcast(self.servers, self.role.renew(sender=self.process_id, lease_id=lease_id))

    def forward(self, effects, fields):
        # Fine: a splat may carry the keyword.
        effects.send("s1", Read(**fields))

    def wrap(self, messages):
        # Fine: an envelope is never addressed to a register.
        return Batch(sender=self.process_id, messages=messages)
