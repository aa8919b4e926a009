"""Repository benchmark: the PropHunt and LER loops, end to end and traced."""
