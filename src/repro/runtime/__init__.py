"""Runtime: tasks, jobs, records, and the task-loop executor."""
