"""Rademacher complexity bounds, exact generalization bounds and comparators.

Each bound is a function of one record: a measures.MeasureReport (one
trained network, so bounds.csv follows from measures.csv alone) or, for the
Rademacher rows, a measures.ClassMeasures (a constrained class, no model).
The paper's constants, stated for a head of c outputs, are specialised here
to c = 1, the binary head of every network here.

The Rademacher upper bound scales with the path-norm's supremum over the
class {||W - W0||_F <= R_W, ||V||_F <= R_V}: R_W * R_V by Cauchy-Schwarz,
attained by one hidden unit.  So it equals the bound stated with that
Frobenius product; bounds.csv still reports it under both names.  The exact
generalization bound combines the complexity bound with a triple union over
integer shells of ||W - W0||_F, ||V||_F and the path-norm, which is where
the (.+1)(.+2) factors come from.  Both share one data term, _data_term.

Nine comparator bounds from the literature, one COMPARATORS entry each, are
evaluated on the same measures; data-dependent ones carry a factor
||X||_F / n, data-independent ones a factor max_i ||x_i||_2 / sqrt(n).
A one-row V has spectral norm R_V and (1,2) distance v_dist from V0.
"""

import math
from dataclasses import dataclass

from .activations import ACTIVATION_BY_ID, RELU
# re-exported: cli.cmd_rad calls it here, where the benchmark's trace wraps it
from .measures import class_bound_inputs

TWO_PLUS_SQRT5 = 2.0 + math.sqrt(5.0)


@dataclass
class BoundValue:
    method: str
    value: float
    data_dependent: bool
    qualitative: bool = False


def cm_constant(m):
    """Peeling constant of the Rademacher upper bound: its log2 argument,
    2 R_W R_V sqrt(m) over the class's path-norm supremum R_W R_V, is
    2 sqrt(m), as in cm_prime_constant(m, 1, 1)."""
    return cm_prime_constant(m, 1.0, 1.0)


def cm_prime_constant(m, r1, r2):
    """Union-shell variant: the log2 argument is 2 r1 r2 sqrt(m), the
    paper's max{2 r1 r2 sqrt(m), 2 sqrt(m)} since r1, r2 >= 1."""
    if r1 < 1 or r2 < 1:
        raise ValueError("r1 and r2 must be >= 1")
    # the argument is >= 2, so the ceiling is >= 1; it is inf on overflow
    shells = math.log2(2.0 * r1 * r2 * math.sqrt(m))
    return _peeling(m, math.ceil(shells) if shells < math.inf else shells)


def _peeling(m, shells):
    """2*sqrt(2) * (1 + 1/(2 log(2m))) * log^(1/2)(2m * shells)."""
    lg = math.log(2.0 * m)
    return 2.0 * math.sqrt(2.0) * (1.0 + 1.0 / (2.0 * lg)) \
        * math.sqrt(math.log(2.0 * m * shells))


def _confidence_term(union_weight, delta, n):
    """3 sqrt(log(union_weight / delta) / (2n)): a union over integer shells."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 3.0 * math.sqrt(math.log(union_weight / delta) / (2.0 * n))


def _data_term(r, scale, cm):
    """L * scale * ((2 + sqrt(5)) ||X||_F + cm sigma_max(X)) / n, with L the
    activation's Lipschitz constant: the data term of a complexity bound at
    path-norm scale `scale`."""
    lipschitz = ACTIVATION_BY_ID[r.activation].lipschitz
    return lipschitz * scale * (
        TWO_PLUS_SQRT5 / r.n * r.X_fro + cm * r.gram_spec_sqrt / r.n)


def rad_upper_path(r):
    """Rademacher complexity upper bound of the class with r's radii, scaling
    with the supremum R_W * R_V of its path-norm."""
    term_init = r.R_V * r.init_term / r.n
    return term_init + _data_term(r, r.R_W * r.R_V, cm_constant(r.m))


def rad_lower(r):
    """Lower bound for ReLU, else None, with r0 = min(min_j ||w_j0||_2, R_W).

    (R_W - r0) R_V / (4 sqrt(2) n) * (sum ||x_i||^2)^(1/2)
      + R_V / (2 sqrt(2) n) * (sum_i sum_j gamma^2(x_i^T w_j0))^(1/2)

    If R_W < min_j ||w_j0||_2 the linear-class term does not apply; the
    top-layer term alone, the bound at r0 := R_W, is still a lower bound.
    """
    if ACTIVATION_BY_ID[r.activation] is not RELU:
        return None
    r0 = min(r.r0, r.R_W)
    first = (r.R_W - r0) * r.R_V / (4.0 * math.sqrt(2.0) * r.n) * r.X_fro
    second = r.R_V / (2.0 * math.sqrt(2.0) * r.n) * r.init_term
    return first + second


def gen_bound_pn(r, delta):
    """Exact generalization bound in terms of the path-norm, at confidence
    1 - delta.

    With one output the leading 2*sqrt(2) Rademacher factors of both
    Rademacher-derived terms reduce to 2.  The loss is the ramp loss,
    1-Lipschitz with range [0, 1], so its Lipschitz constant and range
    factors are 1.
    """
    R1, R2, kappa = r.R_W, r.R_V, r.kappa
    cm = cm_prime_constant(r.m, R1 + 1.0, R2 + 1.0)
    term1 = 2.0 * (R2 + 1.0) / r.n * r.init_term
    term2 = 2.0 * _data_term(r, kappa + 1.0, cm)
    union_weight = 2.0 * (R1 + 1.0) * (R1 + 2.0) * (R2 + 1.0) * (R2 + 2.0) \
        * (kappa + 1.0) * (kappa + 2.0)
    return term1 + term2 + _confidence_term(union_weight, delta, r.n)


def gen_bound_spn(r, delta):
    """Generalization bound in terms of the standard path-norm."""
    kappa_s = r.kappa_s
    term1 = 4.0 / r.n * (kappa_s + 1.0) * r.X_fro
    union_weight = 2.0 * (kappa_s + 1.0) * (kappa_s + 2.0)
    return term1 + _confidence_term(union_weight, delta, r.n)


# name: (data_dependent, qualitative, the norm expression of a report r)
COMPARATORS = {
    "vc_dim": (False, False, lambda r: math.sqrt(r.d * r.m)),
    "inf1_product": (True, False, lambda r: r.w_inf1 * r.v_inf1),
    "spn_radbound": (False, False, lambda r: r.kappa_s),
    "fro_product": (True, False, lambda r: r.w_fro * r.R_V),
    "spectral_12": (True, False, lambda r: r.w_spectral * r.v_dist
                    + r.w_dist_12 * r.R_V),
    "pacbayes": (False, False, lambda r: r.w_spectral * r.v_dist
                 + math.sqrt(r.m) * r.R_W * r.R_V),
    "relu_decomp": (True, False, lambda r: r.w0_spectral * r.R_V
                    + r.R_W * r.R_V + math.sqrt(r.m)),
    "lipschitz_smooth": (False, False, lambda r: 1.0 / r.b_x + r.R_V * (
        r.w0_spectral + r.R_W * (1.0 + r.w0_spectral * r.b_x))),
    "adl": (False, True, lambda r: r.w0_spectral * r.R_V + r.R_W * r.R_V),
}


def comparator_bound(name, r):
    """The comparator bound `name` of COMPARATORS, as a BoundValue.

    Data-dependent rows are multiplied by ||X||_F / n, data-independent rows
    by b_x / sqrt(n).  The adl value carries ``qualitative=True``: its
    hidden constants are not computable, only the dominant term is reported.
    """
    data_dep, qualitative, norm = COMPARATORS[name]
    factor = r.X_fro / r.n if data_dep else r.b_x / math.sqrt(r.n)
    return BoundValue(name, norm(r) * factor, data_dep, qualitative)


def all_bound_values(report, delta):
    """Every implemented bound for one trained model, as BoundValues.

    ``report`` is the model's MeasureReport (in memory or read back from
    measures.csv).  rad_upper_frob is rad_upper_path (see the module
    docstring); rad_lower is reported only where it gives one (ReLU).
    """
    upper = rad_upper_path(report)
    values = [comparator_bound(name, report) for name in COMPARATORS]
    ours = {"pn_ours": gen_bound_pn(report, delta),
            "spn_ours": gen_bound_spn(report, delta),
            "rad_upper_path": upper, "rad_upper_frob": upper,
            "rad_lower": rad_lower(report)}
    return values + [BoundValue(name, value, data_dependent=True)
                     for name, value in ours.items() if value is not None]
