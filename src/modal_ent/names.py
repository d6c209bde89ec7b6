"""The names of the state families and stabilizer elements.

The command line offers these as choices before it knows which subcommand
runs, so they live apart from the modules that build the states and
elements; this module imports nothing, and a call that never builds one
never loads those modules.
"""

#: the families :func:`families.family` builds
FAMILY_NAMES = ("Eq14", "Eq15", "Eq16", "Eq18", "S1", "S2", "psi1", "psi2")

#: the elements :func:`stabilizers.stabilizer` builds
STABILIZER_NAMES = ("generic_eq13", "family16_eq20", "psi1_eq23", "psi2_eq26")
