"""Theta numerics, Moore matrix factorizations and block presentations
of bundles on the Hesse cubic."""

from .bundles import (UlrichSpec, automorphy_residuals, build_algebraic, build_analytic,
                      calibrate_by_order, curve_sample_points, elimination_consequence_residual,
                      elimination_fit, jet_kernel_residual, offcurve_sample_triples,
                      relation_annihilation_residual, relation_matrix, section_basis,
                      tangent_rep, verify_factorization, verify_presentation)
from .curve import (CurveConfig, ProjectivePoint, double_neg, doubling_orbit, embed,
                    is_three_torsion, on_curve)
from .errors import (AllZero, CalibrationFailed,
                     DegenerateOrbit, DegenerateProbe, DenominatorZero, HesseCubicError,
                     IllConditioned, InconsistentPsi,
                     NonconvergentSeries, NotSquare, OrderTooHigh, SamplingFailed,
                     SingularCurve, SizeMismatch, ThetaOverflow, ZeroReference)
from .moore import l_derivative, l_from_coords, moore_from_coords, theta_relation_residuals
from .poly import (PolyMatrix, det_scalar_fit, eval_matrix, evaluate, hesse_form,
                   numeric_rank)
from .report import CheckReport, check
from .theta import ThetaContext, basis_provenance, hesse_psi, theta_jet

__version__ = "0.1.0"
