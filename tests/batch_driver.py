"""An in-process driver for the supervisor's policy core."""

from repro.runtime.supervisor import BatchCore, Finish, Launch, Record, _run_attempt


def drive(supervisor, tasks, ledger=None):
    """Run ``tasks`` through ``supervisor``'s :class:`BatchCore` with every
    attempt answered in this process by its task runner, in simulated time
    (an attempt takes none; a retry starts when its backoff ends)."""
    completed, torn_tail = {}, False
    if ledger is not None and ledger.exists():
        torn_tail, completed = ledger.records()[1], ledger.completed()
    core = BatchCore(supervisor, completed, torn_tail)
    now, actions = 0.0, [action for task in tasks for action in core.add(task)]
    while True:
        actions += core.advance(now)
        if not actions:  # every task waits out a backoff
            now = core.wake_at()
        while actions:
            action = actions.pop(0)
            if isinstance(action, Launch):
                reply = _run_attempt(supervisor.task_runner, action.payload)
                actions += core.reply(action.fingerprint, reply, now)
            elif isinstance(action, Record) and ledger is not None:
                ledger.append(action.record)
            elif isinstance(action, Finish):
                if ledger is not None:
                    ledger.compact(core.order)
                    ledger.close()
                return action.report
