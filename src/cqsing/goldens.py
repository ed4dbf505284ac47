"""Reference outputs for the anchor inputs, embedded so CLI reports can
flag agreement on the pairs everything was calibrated against.  Each value
has the type that its report passes, tuples where the layers hold tuples.
The test suite keeps its own frozen copies; these are for report
consumers."""

REFERENCE = {
    (11, 7): {
        "fraction": (2, 3, 2, 2),
        "dual_fraction": (3, 4),
        "e": 4,
        "r": 4,
        "generators": [(11, 0), (4, 1), (1, 3), (0, 11)],
        "special": [1, 2, 3, 7],
        "cluster_ideals": [
            ((1, 0), (0, 11)),
            ((2, 0), (1, 3), (0, 8)),
            ((3, 0), (1, 3), (0, 5)),
            ((7, 0), (4, 1), (0, 2)),
            ((11, 0), (0, 1)),
        ],
        "fan_rays": ((11, 0), (8, 1), (5, 2), (2, 3), (1, 7), (0, 11)),
        "quasidet_matrix": (
            ("z0_0", "z1_0", "z2_0"),
            ("z1_1", "z2_1", "z3_0"),
        ),
        "parameter_group_sizes": [3, 4],
        "base_dimension": 5,
        "relation_count": 7,
        "dim_t1": 5,
    },
    (11, 4): {
        "fraction": (3, 4),
        "dual_fraction": (2, 3, 2, 2),
        "e": 6,
        "r": 2,
        "dim_t1": 7,
        "base_ideal_size": 6,
    },
}


def with_reference(checks: dict, s, **values) -> dict:
    """``checks`` plus ``matches_reference`` when the input has a stored
    reference naming any of ``values``: True iff each named value agrees
    with the stored one."""
    ref = REFERENCE.get((s.n, s.q))
    if ref is not None:
        relevant = [k for k in values if k in ref]
        if relevant:
            checks["matches_reference"] = all(ref[k] == values[k] for k in relevant)
    return checks
