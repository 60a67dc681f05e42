"""Element symbol table for Z = 1..86 (hydrogen through radon)."""

MAX_Z = 86

# Index i holds the symbol for atomic number i; index 0 is a placeholder.
SYMBOLS = (
    "",
    "H", "He",
    "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar",
    "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr",
    "Rb", "Sr", "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd",
    "In", "Sn", "Sb", "Te", "I", "Xe",
    "Cs", "Ba",
    "La", "Ce", "Pr", "Nd", "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er",
    "Tm", "Yb", "Lu",
    "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn",
)

SYMBOL_TO_Z = {symbol: z for z, symbol in enumerate(SYMBOLS) if z > 0}


def z_to_symbol(z: int) -> str:
    """Map an atomic number in [1, 86] to its element symbol."""
    if not 1 <= z <= MAX_Z:
        raise ValueError(f"atomic number {z} outside supported range [1, {MAX_Z}]")
    return SYMBOLS[z]
