"""Checked-in copies of the classification tables the symbolic layer must
reproduce exactly (string-equal)."""

# Cartan label and degree from the presence/squares of T, C, P.
# key: (has_T, T_sq, has_C, C_sq, has_P)
TENFOLD = {
    (False, None, False, None, False): ("A", 0),
    (False, None, False, None, True): ("AIII", 1),
    (True, 1, False, None, False): ("AI", 0),
    (True, -1, False, None, False): ("AII", 4),
    (False, None, True, 1, False): ("D", 2),
    (False, None, True, -1, False): ("C", 6),
    (True, 1, True, 1, True): ("BDI", 1),
    (True, -1, True, 1, True): ("DIII", 3),
    (True, 1, True, -1, True): ("CI", 7),
    (True, -1, True, -1, True): ("CII", 5),
}

# classify's verdict on all 32 (has_T, T_sq, has_C, C_sq, has_P), squares set
# even where T or C is absent: P counts only beside both T and C or neither
CLASSIFY_ALL = {
    (False, 1, False, 1, False): "A", (False, 1, False, 1, True): "AIII",
    (False, 1, False, -1, False): "A", (False, 1, False, -1, True): "AIII",
    (False, 1, True, 1, False): "D", (False, 1, True, 1, True): "D",
    (False, 1, True, -1, False): "C", (False, 1, True, -1, True): "C",
    (False, -1, False, 1, False): "A", (False, -1, False, 1, True): "AIII",
    (False, -1, False, -1, False): "A", (False, -1, False, -1, True): "AIII",
    (False, -1, True, 1, False): "D", (False, -1, True, 1, True): "D",
    (False, -1, True, -1, False): "C", (False, -1, True, -1, True): "C",
    (True, 1, False, 1, False): "AI", (True, 1, False, 1, True): "AI",
    (True, 1, False, -1, False): "AI", (True, 1, False, -1, True): "AI",
    (True, 1, True, 1, False): "BDI", (True, 1, True, 1, True): "BDI",
    (True, 1, True, -1, False): "CI", (True, 1, True, -1, True): "CI",
    (True, -1, False, 1, False): "AII", (True, -1, False, 1, True): "AII",
    (True, -1, False, -1, False): "AII", (True, -1, False, -1, True): "AII",
    (True, -1, True, 1, False): "DIII", (True, -1, True, 1, True): "DIII",
    (True, -1, True, -1, False): "CII", (True, -1, True, -1, True): "CII",
}

# classifying group per (label, dimension), all 40 entries
POINT_GROUPS = {
    "A":    ["Z", "0", "Z", "0"],
    "AIII": ["0", "Z", "0", "Z"],
    "AI":   ["Z", "0", "0", "0"],
    "BDI":  ["Z2", "Z", "0", "0"],
    "D":    ["Z2", "Z2", "Z", "0"],
    "DIII": ["0", "Z2", "Z2", "Z"],
    "AII":  ["Z", "0", "Z2", "Z2"],
    "CII":  ["0", "Z", "0", "Z2"],
    "C":    ["0", "0", "Z", "0"],
    "CI":   ["0", "0", "0", "Z"],
}
