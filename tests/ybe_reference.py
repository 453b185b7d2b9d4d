"""Test-side references for the Yang-Baxter layer, for the tests only.

``compose_flip`` builds tau R as a dense RingMatrix product with the flip,
and ``r_matrix_json`` writes the R-file format that ``r_matrix_from_json``
and ``braidrep ybe --file`` read.
"""

from braidrep.yang_baxter import RMatrixSpec, flip_matrix


def compose_flip(spec: RMatrixSpec) -> RMatrixSpec:
    """tau R for an exact spec: apply R, then swap the two tensor factors."""
    return RMatrixSpec(spec.dim, spec.ring, flip_matrix(spec.dim) @ spec.matrix)


def r_matrix_json(spec: RMatrixSpec) -> dict:
    """Exact entries as strings, complex ones as [re, im] pairs."""
    if spec.exact:
        raw = [[str(e) for e in row] for row in spec.matrix.entries]
    else:
        raw = [[[z.real, z.imag] for z in row] for row in spec.matrix.tolist()]
    return {"dim": spec.dim, "ring": spec.ring, "matrix": raw}
