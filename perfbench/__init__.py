"""Repository benchmark: closed-loop workloads, answer checker, traced ledger."""
