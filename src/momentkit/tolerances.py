"""Every threshold that momentkit decides by, in one table.

Each entry says its unit (absolute, relative to a named norm, or
scale-free) and the rule it serves.  No other module writes a threshold of
its own: ``tests/test_tolerances.py`` finds no float literal in (0, 1e-2)
outside this file, and no entry here that ``src/`` does not read.
"""

# --- verdicts ----------------------------------------------------------------
# Absolute or relative, as each verb's rule reads --tol: the default of Command.tol and --tol.
VERDICT_TOL = 1e-8
# Absolute, in the moments' units: the floor under --tol of the grid check's passed flag.
GRID_TOL_FLOOR = 1e-7

# --- moment matrices (moments.py) --------------------------------------------
# Relative to max(1, ||H||_F) at the gate, absolute on the certificate's band: their default.
PSD_TOL = 1e-8
# Scale-free, on the diagonally scaled H: a Cholesky pivot above it is kept, in the rank.
RANK_PIVOT_KEEP = 1e-10
# Scale-free, likewise: a stopping pivot at or above it is ambiguous (RankDetectionAmbiguous).
RANK_PIVOT_DROP = 1e-12
# Relative to max(1, max_k |m_k|): verify_truncated's default bound on a moment residual.
TRUNCATION_TOL = 1e-7
# Absolute, in the variable x: how far outside the support an extension's atom may lie.
SUPPORT_TOL = 1e-8
# Absolute, in the variable x: how far outside the declared support a grid point may lie.
GRID_SUPPORT_TOL = 1e-12
# Absolute, on a polynomial of coefficient 1-norm at most 1: a grid value below minus it fails.
GRID_VIOLATION_TOL = 1e-12

# --- Jacobi eigensolver (eig.py) ---------------------------------------------
# Relative to ||A||_F, no floor: a Jacobi sweep stops once the off-diagonal mass is below it.
OFFDIAG_MASS_TOL = 1e-14
# Relative to the largest |entry|, no floor: a larger asymmetry is refused (EigFailure).
SYMMETRY_TOL = 1e-12

# --- simplex (simplex.py) ----------------------------------------------------
# Absolute, on rows scaled to entries <= 1: primal infeasibility; times max(1, |b_i|): lp_feasible's band on row i.
FEAS_TOL = 1e-9
# Absolute, on the scaled tableau: a reduced cost below minus it enters; an entry above it leaves.
PIVOT_TOL = 1e-9
# Absolute, on the scaled tableau: an optimal tableau that pivoted below it is checked as posed.
SMALL_PIVOT = 1e-3
# Relative to max(1, |least ratio|): ratio-test rows this close to the least ratio tie.
RATIO_TIE_TOL = 1e-12
# Relative to max(1, |least entry|): the lexicographic tie-break drops rows further above it.
LEX_TIE_TOL = 1e-15

# --- function spaces (funcspace.py) ------------------------------------------
# Relative to max(1, s_max), then max(1, |f|_inf): a span's rank check and membership test.
INDEPENDENCE_TOL = 1e-10
# Scale-free: the eps of |g| <= eps |f| + h; that is monotone in eps, so it stands for [eps, 1].
ADAPTED_EPS = 1e-6

# --- Hahn-Banach extension (extend.py) ---------------------------------------
# Absolute, in the functional's units: an admissible interval reversed by more is empty.
INTERVAL_TOL = 1e-9
# Absolute, in the functional's units: how far a chosen value may stray outside its interval.
CHOSEN_SLACK = 1e-12

# --- measures (measure.py, jsonio.py) ----------------------------------------
# Relative to max(1, largest |value|): a larger spread in a block is not block-constant.
MEASURABLE_TOL = 1e-10
# Absolute, in mass units: an indicator's value below minus this is a negative mass.
MASS_ERROR_TOL = 1e-8
# Absolute, in mass units: a given block mass below minus this is refused, not clamped to 0.
MASS_DUST = 1e-12
# Absolute, in the seminorm's units: the default bound on an indicator's distance to span(B).
DENSITY_TOL = 1e-8
# Absolute, in the functional's units: the largest |L(g) - int g| a certified measure leaves.
RESIDUAL_TOL = 1e-7
# Absolute, in the functional's units: the slack of the gap decay T(g) <= eps T(f).
T_DECAY_SLACK = 1e-8
# Relative to max(1, hi - lo): the pad above a basis vector's maximum that keeps bins half-open.
BIN_PAD = 1e-9
