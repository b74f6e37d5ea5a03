"""Agentic restoration planning: perception, experience-grounded scheduling,
reflective tool execution, and depth-first rollback search over a calibrated
simulated degradation environment."""
