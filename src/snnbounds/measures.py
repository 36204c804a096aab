"""Scalar complexity measures of a (params, snapshot, dataset) triple.

The central quantity is the path-norm with a reference matrix,
kappa = sum_{j,k} |v_kj| * ||w_j - w_j0||_2.  The standard path-norm
kappa_s is the same sum against a zero reference, so one path_norm(V, M)
gives both.  A report adds Frobenius/spectral norms of the weights and
their distances from initialization (measure_report forms W - W0 once) and
the activation-at-initialization term.  It also carries every data
statistic the bounds need and the network's width, input dimension and
activation, so the bounds are a function of one measures.csv row.  A
MeasureReport extends the ClassMeasures of the network's class.

The init term, r0 and ||W0||_sigma depend on W0, the activation and X alone,
not on the trained weights: they are a cell's CellConstants, computed by
cell_constants and, by `snnbounds measure`, once per cell_key.
"""

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import activations
from .activations import ACTIVATION_BY_ID
from .datasets import DataError, prepared_key
from .linalg import COLUMN_BLOCK, column_blocks, spectral_norm


def path_norm(V, M):
    """sum_j sum_k |v_kj| * ||m_j||_2 over the rows m_j of M: kappa for
    M = W - W0, the standard path-norm kappa_s for M = W."""
    return float(np.abs(V).sum(axis=0) @ np.linalg.norm(M, axis=1))


def init_activation_term(W0, X, activation):
    """(sum_j sum_i gamma^2(x_i^T w_j0))^(1/2) for the rows w_j0 of W0.

    Summed over blocks of at most COLUMN_BLOCK columns of X, so memory is
    O(m * block) rather than O(m * n).
    """
    total = 0.0
    for cols in column_blocks(X.shape[1], COLUMN_BLOCK):
        A = activation.fn(W0 @ X[:, cols])
        total += np.sum(np.multiply(A, A, out=A))
    return float(np.sqrt(total))


class _ValueRules:
    """Base of the measure records: ValueError, naming the field, for an
    unknown activation id, an int outside [1, 2**53] (where a float holds it
    exactly), or a float field's value that is not a float, finite and >= 0."""

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "activation" and v not in ACTIVATION_BY_ID:
                raise ValueError(f"unknown activation id {v}")
            if f.type is int and f.name != "activation" and not 1 <= v <= 2**53:
                raise ValueError(f"{f.name} = {v} must be >= 1 and <= 2**53")
            if f.type is float and not (isinstance(v, float) and 0 <= v < np.inf):
                raise ValueError(f"{f.name} = {v!r} must be finite and >= 0 (a float)")


@dataclass
class ClassMeasures(_ValueRules):
    """What the Rademacher rows read of the class {||W - W0||_F <= R_W,
    ||V||_F <= R_V}: the class fields of a MeasureReport."""
    m: int                 # hidden width
    activation: int        # activations.Activation.id
    R_W: float             # ||W - W0||_F
    R_V: float             # ||V||_F
    init_term: float       # (sum gamma^2(x^T w0))^(1/2)
    X_fro: float
    gram_spec_sqrt: float  # ||sum x_i x_i^T||_sigma^(1/2) = sigma_max(X)
    n: int                 # number of examples
    r0: float              # min_j ||w_j0||_2


@dataclass
class MeasureReport(ClassMeasures):
    kappa: float
    kappa_s: float
    w_fro: float           # ||W||_F (full norm, for the Frobenius-product bound)
    v_dist: float          # ||V - V0||_F
    w0_spectral: float
    w_spectral: float
    w_dist_12: float       # ||W - W0||_{1,2}: l2 norm of the column l1 norms
    w_inf1: float          # ||W||_{inf,1}: sum of the column max-norms
    v_inf1: float          # ||V||_{inf,1}
    b_x: float             # max_i ||x_i||_2
    d: int                 # input dimension


MEASURE_CSV_FIELDS = ["dataset", "seed"] + [f.name for f in fields(MeasureReport)]


@dataclass(frozen=True)
class CellConstants(_ValueRules):
    """The measures of a cell that depend on its initialization W0, its
    activation and the data alone, so that no training changes them."""
    init_term: float    # (sum gamma^2(x^T w0))^(1/2)
    r0: float           # min_j ||w_j0||_2
    w0_spectral: float  # ||W0||_sigma


def cell_constants(W0, ds, activation):
    """CellConstants of W0 with activation on ds: the one place they are
    computed, by the m x d x n pass of the init term and one Gram
    eigensolve of W0."""
    return CellConstants(init_activation_term(W0, ds.X, activation),
                         float(np.min(np.linalg.norm(W0, axis=1))),
                         spectral_norm(W0))


def cell_key(W0, ds, activation):
    """Hex sha256 of everything cell_constants(W0, ds, activation) is
    computed from: datasets.prepared_key of ds's data fingerprint (the data,
    numpy, and the source of datasets.py and linalg.py), ds.n, which fixes
    --subsample, the source of this module and of activations.py, the
    activation id, and W0's dtype (W0 comes through model.py, which is not
    hashed), shape and bytes.  ValueError for a ds without a fingerprint,
    whose key would not cover its data."""
    if not ds.fingerprint:
        raise ValueError("a cell key needs the data fingerprint of ds")
    digest = hashlib.sha256(f"{prepared_key(ds.fingerprint)} {ds.n} "
                            f"{activation.id} {W0.dtype.str} "
                            f"{W0.shape}".encode())
    for path in (__file__, activations.__file__):
        with open(path, "rb") as f:
            digest.update(f.read())
    digest.update(np.ascontiguousarray(W0, dtype="<f8"))
    return digest.hexdigest()


def class_bound_inputs(ds, W0, activation, R_W, R_V, constants=None):
    """ClassMeasures of a constrained class (radii R_W, R_V around W0).

    init_term and r0 are those of constants, W0's CellConstants, computed
    by cell_constants when not given.  measure_report takes a network's
    class fields from it.  With no model fields, only the Rademacher rows
    can be computed from it, e.g. to compare them against Monte-Carlo
    estimates.
    """
    if constants is None:
        constants = cell_constants(W0, ds, activation)
    stats = ds.stats
    return ClassMeasures(
        m=W0.shape[0], activation=activation.id, R_W=R_W, R_V=R_V,
        init_term=constants.init_term, X_fro=stats.X_fro,
        gram_spec_sqrt=stats.gram_spec_sqrt, n=ds.n, r0=constants.r0)


def measure_report(params, snapshot, ds, constants=None):
    """All scalar measures; the class fields are class_bound_inputs' ones.
    init_term, r0 and w0_spectral are those of constants, the cell's
    CellConstants, computed here when not given; the record checks them as
    any other value.  ValueError unless W and V are float64 and no norm
    overflows."""
    if params.W.dtype != np.float64:
        raise ValueError(f"measures are taken in float64, not {params.W.dtype}")
    if params.W.shape != snapshot.W0.shape or params.V.shape != snapshot.V0.shape:
        raise ValueError("params/snapshot shape mismatch")
    if constants is None:
        constants = cell_constants(snapshot.W0, ds, params.activation)
    dW = params.W - snapshot.W0
    return MeasureReport(
        **vars(class_bound_inputs(ds, snapshot.W0, params.activation,
                                  float(np.linalg.norm(dW)),
                                  float(np.linalg.norm(params.V)), constants)),
        kappa=path_norm(params.V, dW),
        kappa_s=path_norm(params.V, params.W),
        w_fro=float(np.linalg.norm(params.W)),
        v_dist=float(np.linalg.norm(params.V - snapshot.V0)),
        w0_spectral=constants.w0_spectral,
        w_spectral=spectral_norm(params.W),
        w_dist_12=float(np.linalg.norm(np.abs(dW).sum(axis=0))),
        w_inf1=float(np.abs(params.W).max(axis=0).sum()),
        v_inf1=float(np.abs(params.V).max(axis=0).sum()),
        b_x=ds.stats.b_x,
        d=params.d,
    )


def measure_row(report, dataset, seed):
    """CSV row (list of values) in MEASURE_CSV_FIELDS order."""
    return [dataset, seed] + [repr(getattr(report, f.name))
                              for f in fields(MeasureReport)]


def report_from_row(row):
    """MeasureReport from a csv.DictReader row of measures.csv; the inverse
    of measure_row.  Values are parsed with their field's type, so the
    repr-written floats read back exactly.  DataError for columns other than
    MEASURE_CSV_FIELDS (a file of another version, such as one with a c,
    v_spectral or v_dist_12 column; the extra columns are named with their
    values), a short row, a value that does not parse or that MeasureReport
    refuses, X_fro or b_x = 0, which bounds and figures divide by, and
    gram_spec_sqrt = 0, which an infinite peeling constant multiplies.
    """
    if list(row) != MEASURE_CSV_FIELDS or None in row.values():
        extra = ", ".join(f"{k} = {row[k]}" for k in row
                          if k is not None and k not in MEASURE_CSV_FIELDS)
        raise DataError("measures.csv has other columns than `snnbounds "
                        f"measure` writes{f' ({extra})' if extra else ''}; "
                        "rerun `snnbounds measure`")
    try:
        report = MeasureReport(**{f.name: f.type(row[f.name])
                                  for f in fields(MeasureReport)})
    except ValueError as exc:
        raise DataError(f"measures.csv: {exc}") from None
    for name in ("X_fro", "gram_spec_sqrt", "b_x"):
        if getattr(report, name) == 0:
            raise DataError(f"measures.csv: {name} = 0.0 must be > 0")
    return report
