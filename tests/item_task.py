"""The test-side task: ``n`` items at ``cost_us`` each, nothing emitted.

A task built for a scheduler takes its id from the run's engine
(``next(engine.task_ids)``); a bare task in a policy unit test passes a
literal id, distinct among the tasks the test compares.
"""

from repro.runtime.scheduler import TaskBase


class ItemTask(TaskBase):
    def __init__(self, name, n, cost_us, task_id):
        super().__init__(name, task_id)
        self.remaining = n
        self.cost_us = cost_us

    def has_work(self):
        return self.remaining > 0

    def step(self, budget_us):
        elapsed = 0.0
        while self.remaining > 0:
            self.remaining -= 1
            elapsed += self.cost_us
            if budget_us == 0.0:
                break
            if budget_us is not None and elapsed >= budget_us:
                break
        self.busy_us += elapsed
        return elapsed, []
