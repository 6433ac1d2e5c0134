"""Multi-channel Bayesian persuasion toolkit.

A sender commits to a state-dependent distribution over signals sent on
n channels; receiver i observes the channels marked in row i of a binary
communication structure.  The package analyzes structures (dominance,
superiority, minimal dominance-free designs), solves forest-structured
instances on a posterior grid with exact rational arithmetic, emulates
private disclosure over shared channels with one-time pads, and
generates hardness instances from minimum b-union problems.

Importing the package imports none of its modules: each name is
imported from the module that defines it (model, dominance, beliefs,
forest, sharing, hardness, io), so a command loads only what it runs.
"""

__version__ = "0.1.0"
