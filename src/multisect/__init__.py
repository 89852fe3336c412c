"""Multisection diagrams of 4-manifolds.

Exact constructions of bisection and multisection diagrams from Heegaard
diagrams, validation of their sector structure, fundamental group and
homology computation, and Nielsen-class certificates separating
decompositions that no isotopy can match.
"""

from .abelian import FiniteAbelianGroup
from .matrices import SmithForm, smith_normal_form
from .presentations import (AbelianInvariants, GroupPresentation, SectorVerdict,
                            Surjection, TietzeResult, abelianization,
                            enumerate_finite_abelian_quotients, format_presentation,
                            parse_presentation, tietze_simplify, verify_free_of_rank)
from .words import (FreeAutomorphism, Word, apply, canonical_cyclic, compose,
                    format_word, identity_automorphism, parse_word)
from .diagrams import (CutSystem, DiagramError, FormatError,
                       GeometricHeegaardDiagram, MultisectionDiagram, SurfaceModel,
                       ValidationReport, connected_sum, express_against,
                       format_diagram, format_heegaard, mirror, parse_diagram,
                       parse_heegaard, pi1_of_diagram, presentation_of_pair,
                       read_against, stabilize, validate)
from .constructions import (GlueMismatchError, MergeRefusedError, auto_cap,
                            bisection_from_heegaard, bisection_from_trisection,
                            cap_off, double_bisection, genus_bound_report,
                            glue_bisections, insert_parallel_sectors,
                            lens_diagram, merge_adjacent_sectors,
                            sphere_bundle_sum_diagram)
from .nielsen import (GeneratingTuple, NielsenCertificate, OrbitPartition,
                      compare_sectors, connect_tuples, determinant_invariant,
                      distinguish, flip_check, format_certificate, nielsen_move,
                      orbit_enumerate, spine_tuple)

__version__ = "0.1.0"
