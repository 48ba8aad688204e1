import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import zfhp
from zfhp.arith import exact_parts

# Every name here is reached by a CLI command, a runner or an acceptance
# criterion; a name leaves this list only together with its last such user.
PUBLIC = [
    "ClassificationResult", "ConditioningError", "DomainError",
    "FunctionalEvaluation", "MobiusTable", "PoleError", "ProbeResult", "QuadratureWarning",
    "TruncatedSeries", "WeightFamily", "ZetaValue", "__version__",
    "build_mobius", "c4_halfplane", "classify", "duren_coefficient_check", "extremal_probe",
    "f_k", "fk_upper_bound", "fk_values", "g_k", "hardy_from_lq_check", "hk_coeffs",
    "hp_norm_estimate", "ims_hk_coeffs", "lambda_apply", "lambda_on_constant", "lq_norm",
    "mellin_rho_alpha", "mellin_step_pk", "mobius_logsum_over_k", "mobius_sum_over_k",
    "parse_weight_family", "reverse_holder_check", "rho_alpha_tail_bound", "rm_sequence", "zeta",
]


def test_public_surface():
    modules = [zfhp] + [
        importlib.import_module(f"zfhp.{info.name}") for info in pkgutil.iter_modules(zfhp.__path__)
    ]
    for module in modules:
        exec(f"from {module.__name__} import *", {})  # a stale __all__ entry raises here
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
    assert sorted(zfhp.__all__) == PUBLIC


def test_one_summation_path():
    # every exactly rounded sum goes through exact_parts; a second, ad-hoc
    # fsum anywhere else in the package fails here
    home = Path(inspect.getsourcefile(exact_parts))
    users = [path.name for path in sorted(home.parent.glob("*.py")) if "fsum" in path.read_text()]
    assert users == [home.name]


def test_one_transform_path():
    # every DFT in the package is a batch of short transforms in
    # norms._four_step; a second path, such as a 1-D np.fft.ifft of the
    # boundary values, fails here
    home = Path(inspect.getsourcefile(exact_parts)).parent
    users = []
    for path in sorted(home.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        users += [(path.stem, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name)
                  or isinstance(node, ast.alias) and node.name.split(".")[-1] == "fft"]
    assert users == [("norms", "_four_step")] * 2


def test_no_scipy_in_the_package():
    # scipy is a test-only dependency: the package has closed forms for
    # what it once took from scipy.integrate and scipy.special
    home = Path(inspect.getsourcefile(exact_parts)).parent
    users = [path.name for path in sorted(home.glob("*.py")) if "scipy" in path.read_text().lower()]
    assert users == []


def test_benchmark_counters_resolve():
    # the benchmark's live counters are keyed on (module, function) names;
    # a rename in the package silently turns such a counter into a constant 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name in [("zfhp.special", "zeta"), ("zfhp.special", "fk_values"), ("zfhp.arith", "build_mobius")]:
        assert (module, name) in spans.COUNTERS
        fn = getattr(importlib.import_module(module), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module, (module, name)
