"""Figure 7's published numbers: inference time under continuous (a) and
intermittent (b) power, and the energy savings (c).

The measurement itself is the registered ``fig7`` study
(:mod:`repro.study.studies`); these constants are what its render and
the benchmarks compare against.
"""

#: Paper speedups of ACE+FLEX over (BASE, SONIC, TAILS), continuous power.
PAPER_FIG7A_SPEEDUPS = {
    "mnist": {"BASE": 3.0, "SONIC": 4.0, "TAILS": 3.3},
    "har": {"BASE": 5.4, "SONIC": 5.7, "TAILS": 2.6},
    "okg": {"BASE": 1.7, "SONIC": 3.3, "TAILS": 2.1},
}

#: Paper speedups of ACE+FLEX over (SONIC, TAILS) under intermittent power.
PAPER_FIG7B_SPEEDUPS = {
    "mnist": {"SONIC": 5.1, "TAILS": 3.8},
    "har": {"SONIC": 4.7, "TAILS": 2.4},
    "okg": {"SONIC": 3.3, "TAILS": 1.7},
}

#: Paper energy savings of ACE+FLEX over (SONIC, TAILS).
PAPER_FIG7C_SAVINGS = {
    "mnist": {"SONIC": 6.1, "TAILS": 4.31},
    "har": {"SONIC": 10.9, "TAILS": 5.26},
    "okg": {"SONIC": 6.25, "TAILS": 3.05},
}
