"""Model representation, validation, partitioning, and stability checks."""

import ast
import dataclasses
import functools
import graphlib
import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semcontrol as sc
import semcontrol.model as model_module
from semcontrol.cli import run_command
from semcontrol.model import (
    CONDITION_LIMIT,
    STABILITY_TOL,
    inverse,
    model_from_dict,
    model_to_dict,
)
from support import cubic_roots, random_cyclic_model, reachable_floyd_warshall


class TestPathDiagram:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sc.PathDiagram(("A", "A"), ())

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            sc.PathDiagram(("A", "B"), (("A", "C"),))

    def test_descendants_follow_directed_paths(self):
        d = sc.PathDiagram(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("D", "A")))
        assert d.descendants("A") == {"B", "C"}
        assert d.descendants("C") == set()

    def test_descendants_exclude_self_even_on_cycle(self):
        d = sc.PathDiagram(("A", "B"), (("A", "B"), ("B", "A")))
        assert d.descendants("A") == {"B"}

    def test_descendants_exclude_self_on_a_self_loop(self):
        d = sc.PathDiagram(("A", "B", "C"), (("A", "A"), ("A", "B"), ("C", "C")))
        assert d.descendants("A") == {"B"}
        assert d.descendants("C") == set()

    def test_parents_keep_edge_order_and_repeats(self):
        d = sc.PathDiagram(("A", "B", "C"), (("B", "C"), ("A", "C"), ("C", "A"), ("B", "C")))
        assert d.parents("C") == ("B", "A", "B")
        assert d.parents("B") == ()
        with pytest.raises(ValueError, match="unknown vertex 'Q'"):
            d.parents("Q")

    def test_has_edge_reads_direction_and_refuses_unknown_names(self):
        d = sc.PathDiagram(("A", "B"), (("A", "B"),))
        assert d.has_edge("A", "B")
        assert not d.has_edge("B", "A")
        assert not d.has_edge("A", "Q")
        assert not d.has_edge("Q", "B")


class TestValidateModel:
    def test_valid_model_has_empty_report(self, two_cycle_model):
        assert sc.validate_model(two_cycle_model) == []

    def test_self_loop_coefficient_reported(self):
        d = sc.PathDiagram(("A", "B"), (("A", "B"), ("A", "A")))
        coeff = np.array([[0.2, 0.0], [0.5, 0.0]])
        model = sc.StructuralModel(d, coeff, np.zeros(2), np.ones(2))
        report = sc.validate_model(model)
        assert any("self-loop at vertex A" in v for v in report)

    def test_duplicate_edge_reported(self):
        d = sc.PathDiagram(("A", "B"), (("A", "B"), ("A", "B")))
        coeff = np.array([[0.0, 0.0], [0.5, 0.0]])
        model = sc.StructuralModel(d, coeff, np.zeros(2), np.ones(2))
        assert any("duplicate edge" in v for v in sc.validate_model(model))

    def test_support_mismatch_reported_both_ways(self):
        d = sc.PathDiagram(("A", "B", "C"), (("A", "B"),))
        coeff = np.zeros((3, 3))
        coeff[2, 0] = 0.4  # A -> C has no edge
        model = sc.StructuralModel(d, coeff, np.zeros(3), np.ones(3))
        report = sc.validate_model(model)
        assert any("edge A -> B has zero coefficient" in v for v in report)
        assert any("coefficient without edge A -> C" in v for v in report)

    def test_negative_disturbance_variance_reported(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5)], disturbance_variances={"Y": -1.0}
        )
        assert any("negative disturbance variance" in v for v in sc.validate_model(model))

    def test_declared_nondescendant_with_treatment_coefficient(self):
        # a hand-built partition that wrongly claims Z is a nondescendant
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("X", "Z", 0.3)], variables=["Y", "X", "Z"]
        )
        bogus = sc.VertexPartition(
            variables=("Y", "X", "Z"),
            treatment="X",
            response="Y",
            descendants=("Y",),
            nondescendants=("Z",),
            controls=("Y",),
            covariates=(),
        )
        report = sc.validate_model(model, bogus)
        assert any("nondescendant block not zero: Z depends on X" in v for v in report)

    def test_correct_partition_passes_block_check(self, two_cycle_model):
        part = sc.partition_vertices(two_cycle_model, "X", "Y")
        assert sc.validate_model(two_cycle_model, part) == []


class TestPartitionVertices:
    def test_contact_aspiration_loop(self, iverson_model):
        part = sc.partition_vertices(iverson_model, "X", "Y")
        assert part.descendants == ("Y",)
        assert set(part.nondescendants) == {"Z1", "Z2", "Z3"}
        assert part.controls == ("Y",)
        assert part.covariates == ()

    def test_single_edge_acyclic(self):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.7)])
        part = sc.partition_vertices(model, "X", "Y")
        assert part.descendants == ("Y",)
        assert part.free_descendants == ()
        assert part.nondescendants == ()

    def test_matches_transitive_closure_oracle(self):
        # random 8-vertex graph containing a 3-cycle
        rng = np.random.default_rng(7)
        names = tuple(f"V{i}" for i in range(8))
        edges = {("V0", "V1"), ("V1", "V2"), ("V2", "V0")}  # the 3-cycle
        while len(edges) < 14:
            s, t = rng.choice(8, size=2, replace=False)
            edges.add((f"V{s}", f"V{t}"))
        edges = sorted(edges)
        coeff_edges = [(s, t, 0.1) for s, t in edges]
        model = sc.StructuralModel.from_edges(coeff_edges, variables=names)
        start = "V0"
        expected = reachable_floyd_warshall(names, edges, start)
        response = sorted(expected)[0]
        part = sc.partition_vertices(model, start, response)
        assert set(part.descendants) == expected
        assert set(part.nondescendants) == set(names) - expected - {start}

    def test_response_not_descendant(self):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.5), ("Z", "X", 0.5)])
        with pytest.raises(sc.ResponseNotDescendant):
            sc.partition_vertices(model, "X", "Z")

    def test_control_set_must_be_descendants(self):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.5), ("Z", "X", 0.5)])
        with pytest.raises(sc.ControlSetMismatch):
            sc.partition_vertices(model, "X", "Y", controls=["Y", "Z"])

    def test_covariate_set_must_be_nondescendants(self):
        model = sc.StructuralModel.from_edges([("X", "Y", 0.5), ("X", "U", 0.2)])
        with pytest.raises(sc.ControlSetMismatch):
            sc.partition_vertices(model, "X", "Y", covariates=["U"])

    def test_treatment_equal_response_rejected(self, two_cycle_model):
        with pytest.raises(ValueError):
            sc.partition_vertices(two_cycle_model, "X", "X")

    def test_block_ordering_convention(self):
        model = sc.StructuralModel.from_edges(
            [("X", "U1", 0.5), ("U1", "Y", 0.5), ("X", "Y", 0.1),
             ("W1", "X", 0.3), ("Z1", "W1", 0.0)],
            variables=["Z1", "W1", "U1", "Y", "X"],
        )
        part = sc.partition_vertices(model, "X", "Y", controls=["Y", "U1"], covariates=["W1"])
        assert part.controls[0] == "Y"
        assert part.descendants[: len(part.controls)] == part.controls
        assert part.nondescendants[0] == "W1"
        assert part.background == ("Z1",)

    def test_idempotent_and_order_invariant(self):
        model, treatment, response = random_cyclic_model(11)
        part1 = sc.partition_vertices(model, treatment, response)
        part2 = sc.partition_vertices(model, treatment, response)
        assert part1 == part2

        # same graph presented in reversed variable order: same sets
        names = model.variables[::-1]
        perm = [model.index(v) for v in names]
        coeff = model.coefficients[np.ix_(perm, perm)]
        reordered = sc.StructuralModel(
            sc.PathDiagram(names, model.diagram.edges),
            coeff,
            model.intercepts[perm],
            model.disturbance_variances[perm],
        )
        part3 = sc.partition_vertices(reordered, treatment, response)
        assert set(part3.descendants) == set(part1.descendants)
        assert set(part3.nondescendants) == set(part1.nondescendants)
        assert part3.controls[0] == response


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert sc.spectral_radius(np.zeros((4, 4))) == 0.0

    def test_two_cycle_closed_form(self):
        for c1, c2 in [(0.3, 0.4), (1.5, 0.8), (-0.5, 0.5)]:
            m = np.array([[0.0, c1], [c2, 0.0]])
            assert sc.spectral_radius(m) == pytest.approx(np.sqrt(abs(c1 * c2)), abs=1e-12)

    def test_three_by_three_against_cardano(self):
        m = np.array([[0.0, 0.3, 0.0], [0.2, 0.0, 0.4], [0.1, 0.0, 0.0]])
        # det(lambda I - M) = lambda^3 - 0.06 lambda - 0.012
        roots = cubic_roots(0.0, -0.06, -0.012)
        expected = max(abs(r) for r in roots)
        assert sc.spectral_radius(m) == pytest.approx(expected, abs=1e-9)

    def test_accuracy_on_similarity_transform(self, rng):
        # known spectrum planted through a well-conditioned similarity
        eigs = rng.uniform(-0.9, 0.9, 50)
        q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
        m = q @ np.diag(eigs) @ q.T
        assert sc.spectral_radius(m) == pytest.approx(np.abs(eigs).max(), abs=1e-9)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(sc.NonFiniteEntry):
            sc.spectral_radius(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("matrix, rho", [
        (np.zeros((0, 0)), 0.0), ([[-0.7]], 0.7), ([[0.0]], 0.0), ([[0.0, 2.0], [0.0, 0.0]], 0.0),
    ], ids=["empty", "one-loop", "one-bare", "nilpotent"])
    def test_small_matrices(self, matrix, rho):
        assert sc.spectral_radius(matrix) == rho
        n = len(matrix)
        model = sc.StructuralModel(sc.PathDiagram(tuple("AB"[:n]), ()), matrix,
                                   np.zeros(n), np.ones(n))
        assert sc.spectral_radius(model) == rho

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_whole_matrix_on_block_triangular_matrices(self, seed):
        # cyclic blocks, singletons with and without a diagonal entry and nilpotent
        # blocks, coupled block upper triangular and then permuted
        rng = np.random.default_rng(seed)
        kinds = ["cyclic", "cyclic", *rng.choice(["cyclic", "loop", "bare", "nilpotent"],
                                                 size=rng.integers(0, 6))]
        rng.shuffle(kinds)
        blocks = []
        for kind in kinds:
            if kind == "cyclic":
                k = int(rng.integers(2, 6))
                block = rng.normal(size=(k, k))
                blocks.append(block * rng.uniform(0.2, 1.5) / np.abs(np.linalg.eigvals(block)).max())
            elif kind == "nilpotent":
                blocks.append(np.triu(rng.normal(size=(4, 4)), 1))
            else:
                blocks.append(np.full((1, 1), rng.uniform(-1.2, 1.2) if kind == "loop" else 0.0))
        n = sum(map(len, blocks))
        upper = np.zeros((n, n))
        starts = np.cumsum([0, *map(len, blocks)])
        planted = []
        for kind, block, start in zip(kinds, blocks, starts):
            span = slice(start, start + len(block))
            upper[span, span] = block
            upper[span, start + len(block):] = 0.5 * rng.normal(size=(len(block), n - span.stop)) \
                * (rng.random((len(block), n - span.stop)) < 0.5)
            members = range(span.start, span.stop)
            planted += [tuple(members)] if kind == "cyclic" else [(i,) for i in members]
        perm = rng.permutation(n)
        matrix = upper[np.ix_(perm, perm)]  # vertex i of matrix is vertex perm[i] of upper
        expected = np.abs(np.linalg.eigvals(matrix)).max()
        assert sc.spectral_radius(matrix) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        where = np.argsort(perm)
        found = {frozenset(members.tolist()) for members, _ in sc.model._scc_radii(matrix)}
        assert found == {frozenset(where[list(group)].tolist()) for group in planted}

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sc.spectral_radius(np.zeros((2, 3)))


class TestCheckStability:
    def test_stable_two_cycle(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 0.5), ("Y", "X", 0.5)], variables=["Y", "X"]
        )
        part = sc.partition_vertices(model, "X", "Y")
        report = sc.check_stability(model, part)
        assert report.feedback_radius == pytest.approx(0.5, abs=1e-12)
        assert report.stable
        assert report.margin == pytest.approx(0.5, abs=1e-12)

    def test_unstable_two_cycle(self):
        model = sc.StructuralModel.from_edges(
            [("X", "Y", 1.5), ("Y", "X", 0.8)], variables=["Y", "X"]
        )
        part = sc.partition_vertices(model, "X", "Y")
        report = sc.check_stability(model, part)
        assert report.feedback_radius == pytest.approx(np.sqrt(1.2), abs=1e-12)
        assert not report.stable

    @pytest.mark.parametrize("variables", [("Y", "X", "Z"), ("Z", "X", "Y")])
    def test_a_component_with_a_descendant_counts_toward_feedback(self, variables):
        # an invalid model: Z is a nondescendant by the diagram, but a coefficient
        # without an edge closes the loop Y -> Z -> Y in the coefficients
        diagram = sc.PathDiagram(variables, (("X", "Y"), ("Z", "Y")))
        coeff = np.zeros((3, 3))
        x, y, z = map(variables.index, "XYZ")
        coeff[y, x], coeff[y, z], coeff[z, y] = 0.5, 0.6, 1.5
        model = sc.StructuralModel(diagram, coeff, np.zeros(3), np.ones(3))
        report = sc.check_stability(model, sc.partition_vertices(model, "X", "Y"))
        assert report.feedback_radius == pytest.approx(0.9**0.5, rel=1e-12)
        assert report.nondescendant_radius == 0.0
        assert sc.spectral_radius(model) == report.feedback_radius

    def test_unconditional_plan_removes_the_loop(self, iverson_model, iverson_partition):
        plan = sc.ControlPlan(set_point=1.0, feedback=[0.0], covariate_gains=[])
        post = sc.apply_plan(iverson_model, iverson_partition, plan)
        part = sc.partition_vertices(post, "X", "Y")
        assert sc.check_stability(post, part).stable
        # no arrow points into the treatment any more
        assert post.diagram.parents("X") == ()


class TestInverse:
    """``model.inverse`` is the one linear solve, gated on the 1-norm condition number."""

    def test_one_norm_condition_number_is_compared_with_the_limit(self):
        # a random 3x3 with its smallest singular value rescaled so that
        # kappa_2 = 8.0e11 is below the limit while kappa_1 = 1.35e12 is above it
        u, s, vt = np.linalg.svd(np.random.default_rng(3).standard_normal((3, 3)))
        s[2] = s[0] / 8e11
        matrix = (u * s) @ vt
        assert np.linalg.cond(matrix) < CONDITION_LIMIT < np.linalg.cond(matrix, 1)
        with pytest.raises(sc.SingularSystem):
            inverse(matrix, sc.SingularSystem("singular"))

    @pytest.mark.parametrize("matrix", [[[1.0, 2.0], [2.0, 4.0]], [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["zero-pivot", "nan-condition-number"])
    def test_singular_matrix_raises_the_given_error(self, matrix):
        error = sc.SingularBlock("the given error")
        with pytest.raises(sc.SingularBlock) as info:
            inverse(np.array(matrix), error)
        assert info.value is error

    @pytest.mark.parametrize("scale, accepted", [(1.0 + 1e-6, True), (1.0 - 1e-6, False)])
    def test_tolerance_band(self, scale, accepted):
        matrix = np.diag([1.0, 1e-12 * scale])  # kappa_1 = 1e12 / scale
        if accepted:
            assert np.array_equal(inverse(matrix, sc.SingularSystem("singular")),
                                  np.diag([1.0, 1.0 / (1e-12 * scale)]))
        else:
            with pytest.raises(sc.SingularSystem):
                inverse(matrix, sc.SingularSystem("singular"))

    def test_empty_matrix_is_its_own_inverse(self, monkeypatch):
        # no covariates gives a 0x0 block; it must not reach the 1-norm, which
        # numpy 1.x cannot reduce over an empty matrix (a max over nothing)
        norm = np.linalg.norm

        def numpy1_norm(x, *args, **kwargs):
            if np.size(x) == 0:
                raise ValueError("zero-size array to reduction operation maximum")
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", numpy1_norm)
        assert inverse(np.zeros((0, 0)), sc.SingularBlock("singular")).shape == (0, 0)

    @staticmethod
    def linalg_uses(names) -> list[tuple[str, str | None, str]]:
        """(file, innermost function, name) of every import from a ``linalg`` module
        in the package, and of every use of one of ``names`` from such a module."""
        found = []
        for path in sorted(Path(sc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [node for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

            def owner(node):
                spans = [(f.end_lineno - f.lineno, f.name) for f in functions
                         if f.lineno <= node.lineno <= f.end_lineno]
                return min(spans)[1] if spans else None

            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    found += [(path.name, owner(node), alias.name) for alias in node.names]
                elif (isinstance(node, ast.Attribute) and node.attr in names
                      and ast.unparse(node.value).endswith("linalg")):
                    found.append((path.name, owner(node), node.attr))
        return found

    def test_no_linear_solve_bypasses_the_gate(self):
        """Every ``cond``, ``solve``, ``inv``, ``pinv`` or ``lstsq`` of a ``linalg``
        module in the package sits inside ``model.inverse``."""
        found = self.linalg_uses({"cond", "solve", "inv", "pinv", "lstsq"})
        assert found == [("model.py", "inverse", "inv")]

    def test_one_eigen_solve_and_public_cli_imports(self):
        """Every general eigen-solve sits in the one function that computes the radius of
        each strongly connected component, and ``cli`` imports only public names, apart
        from the one output path that every written file shares."""
        found = self.linalg_uses({"eigvals", "eig"})
        assert {(path, function) for path, function, _ in found} == {("model.py", "_scc_radii")}
        cli = ast.parse((Path(sc.__file__).parent / "cli.py").read_text())
        imported = [alias.name for node in ast.walk(cli)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        assert [name for name in imported if name.split(".")[-1].startswith("_")] == [
            "_write_whole"]


def test_package_imports_are_layered():
    """No function imports a module of the package, relative or ``semcontrol.*``; the
    modules' top-level imports of each other form an acyclic graph; and ``codec``, the
    exact decimal codec, imports nothing from the package and shares no name it defines."""
    root = Path(sc.__file__).parent
    modules = {path.stem for path in root.glob("*.py")}

    def imported(node) -> set[str]:
        """The package modules that an import statement loads; ``__init__`` for the
        package itself or a name that it exports."""
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            return {name[1] if len(name) > 1 else "__init__" for name in names
                    if name[0] == "semcontrol"}
        if not isinstance(node, ast.ImportFrom):
            return set()
        if node.level == 0 and (node.module or "").split(".")[0] != "semcontrol":
            return set()
        path = (node.module or "").split(".")[node.level == 0:]
        if path and path[0]:
            return {path[0]}
        return {alias.name if alias.name in modules else "__init__" for alias in node.names}

    graph, nested, defined = {}, [], {}
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for function in ast.walk(tree)
                  if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  for node in ast.walk(function)}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if id(node) in inside:
                nested += [(path.name, node.lineno, name) for name in sorted(imported(node))]
            else:
                graph[path.stem] |= imported(node)
        defined[path.stem] = {node.name for node in tree.body if hasattr(node, "name")} | {
            target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}
    assert nested == []
    assert graph["codec"] == set() and "simulate" not in graph["model"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert not set().union(*(names for stem, names in defined.items() if stem != "codec")
                           ) & defined["codec"]


def test_every_dependency_is_imported():
    """The package's third-party import roots, imports inside functions included, are
    exactly the ``dependencies`` that ``pyproject.toml`` declares."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
                for spec in project["project"]["dependencies"]}
    roots = set()
    for path in Path(sc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) - {"semcontrol"} == declared


def _array_holders() -> dict:
    """One instance of each frozen dataclass with an array field, by class name."""
    model, moments = sc.iverson_model(), sc.iverson_moments()
    part = sc.partition_vertices(model, "X", "Y", covariates=["Z1"])
    effects = sc.total_effects(model, part)
    blocks = sc.RegressionBlocks.from_moments(moments, part)
    plan = sc.ControlPlan(set_point=1.0, feedback=[0.0], covariate_gains=[0.5])
    held = [model, moments, effects, blocks, plan, sc.Dataset(("a", "b"), np.zeros((2, 2))),
            sc.plan_variance(moments, effects, blocks, plan), sc.optimal_b(effects, blocks),
            sc.covariate_compare(moments, effects, ("Z1",), ())]
    return {type(x).__name__: x for x in held}


@pytest.mark.parametrize("name", ["StructuralModel", "MomentSummary", "EffectSummary",
                                  "RegressionBlocks", "ControlPlan", "Dataset", "PlanEffect",
                                  "OptimalGains", "CovariateComparison"])
def test_array_holders_compare_and_hash_by_identity(name):
    """An array has no truth value, so these classes compare and hash by identity."""
    x = _array_holders()[name]
    twin = dataclasses.replace(x)
    assert x == x and x != twin
    assert len({x, twin}) == 2


def _with_coefficients(matrix: np.ndarray) -> sc.StructuralModel:
    """The model on V0, V1, ... whose coefficients are ``matrix``, an edge per nonzero."""
    n = len(matrix)
    names = tuple(f"V{i}" for i in range(n))
    diagram = sc.PathDiagram(names, [(names[j], names[i]) for i, j in zip(*np.nonzero(matrix))])
    return sc.StructuralModel(diagram, matrix, np.zeros(n), np.ones(n))


@st.composite
def planted_radius_matrices(draw):
    """Matrices with a planted spectral radius in [0.3, 1.5], often within 1e-9 of 1:
    dense ones with a zero diagonal; Jordan-like ones, a triangular matrix with a large
    upper part hidden by a permutation or by a non-orthogonal similarity; and weighted
    cycles, whose weights differ by up to e^8 while their product sets the radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 10))
    rho = draw(st.one_of(st.floats(0.3, 1.5),
                         st.sampled_from([1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1.0, 1 + 1e-9])))
    kind = draw(st.sampled_from(["dense", "jordan", "similar", "cycle"]))
    perm = rng.permutation(n)
    if kind == "dense":
        m = rng.normal(size=(n, n))
        np.fill_diagonal(m, 0.0)
        return m * (rho / np.abs(np.linalg.eigvals(m)).max())
    if kind == "cycle":
        weights = np.exp(rng.uniform(-4.0, 4.0, n)) * rng.choice([-1.0, 1.0], n)
        weights *= rho / np.prod(np.abs(weights)) ** (1.0 / n)
        m = np.zeros((n, n))
        m[perm, np.roll(perm, 1)] = weights
        return m
    upper = np.triu(rng.normal(size=(n, n)), 1) * draw(st.floats(1.0, 50.0))
    diagonal = rng.uniform(-rho, rho, n)
    diagonal[0] = rho * rng.choice([-1.0, 1.0])
    t = upper + np.diag(diagonal)
    if kind == "jordan":
        return t[np.ix_(perm, perm)]
    s = np.eye(n) + np.triu(rng.normal(size=(n, n)), 1) * 10.0
    return s @ t @ np.linalg.inv(s)


def _unstable_matrix(kind: str, rho: float) -> np.ndarray:
    """A 40 x 40 dense matrix with a zero diagonal, a quarter-turn rotation or a 3-cycle, of
    spectral radius ``rho``.  A quarter-turn rotation's trace cancels, though its square's
    does not; every power A^(2^k) of a 3-cycle has zero trace, so only the cap or an overflow
    ends its squaring, while a dense matrix's trace soon ends it."""
    if kind == "dense":
        m = np.random.default_rng(0).normal(size=(40, 40))
        np.fill_diagonal(m, 0.0)
        return m * (rho / np.abs(np.linalg.eigvals(m)).max())
    if kind == "rotation":
        return np.array([[0.0, -rho], [rho, 0.0]])
    m = np.zeros((3, 3))
    m[[1, 2, 0], [0, 1, 2]] = rho
    return m


class TestCertificate:
    """``StructuralModel.certified_stable`` proves stability without an eigen-solve, and
    never where the eigen gate would refuse."""

    @given(planted_radius_matrices())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_certified_matrix_passes_the_eigen_gate(self, matrix):
        if _with_coefficients(matrix).certified_stable:
            assert sc.spectral_radius(matrix) < 1.0 - STABILITY_TOL

    @given(planted_radius_matrices())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_certified_model_exits_as_the_eigen_gate_does(self, matrix):
        model = _with_coefficients(matrix)
        if not model.certified_stable or np.diagonal(matrix).any():  # a self-loop is invalid
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.json")
            sc.save_model(model, path)
            for argv in (["effects"], ["plan-eval", "--a", "0.5"]):
                argv += ["--model", path, "--treatment", "V0", "--response", "V1"]
                certified = run_command(argv)
                with mock.patch.object(sc.StructuralModel, "certified_stable",
                                       property(lambda self: False)):
                    assert run_command(argv) == certified

    @given(planted_radius_matrices())
    @example(_unstable_matrix("dense", 1.2))
    @example(_unstable_matrix("rotation", 1.5))
    @example(_unstable_matrix("cycle", 2.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_stable_is_the_eigen_gate(self, matrix):
        model = _with_coefficients(matrix)
        assert model.stable is sc.model.is_stable(sc.spectral_radius(matrix))

    @pytest.mark.parametrize("rho, certified", [(0.0, True), (0.5, True), (0.9, True),
                                                (1.0 - 1e-8, False), (1.0, False), (2.0, False)])
    def test_random_dense_matrices(self, rng, rho, certified):
        m = rng.normal(size=(40, 40))
        m *= rho / np.abs(np.linalg.eigvals(m)).max()
        assert _with_coefficients(m).certified_stable is certified

    @pytest.mark.parametrize("kind, rho", [("dense", 1.2), ("dense", 2.0), ("rotation", 1.5),
                                           ("cycle", 2.0), ("cycle", 1.0 + 1e-9)])
    def test_an_unstable_model_is_not_certified_and_keeps_its_gate(self, tmp_path, capsys,
                                                                    kind, rho):
        model = _with_coefficients(_unstable_matrix(kind, rho))
        assert model.certified_stable is False
        path = tmp_path / "model.json"
        sc.save_model(model, path)
        argv = ["effects", "--model", str(path), "--treatment", "V0", "--response", "V1"]
        outcome = run_command(argv), capsys.readouterr().err
        assert outcome[0] == 2 and outcome[1].startswith("error: model is not stable")
        with mock.patch.object(sc.StructuralModel, "certified_stable",
                               property(lambda self: False)):
            assert (run_command(argv), capsys.readouterr().err) == outcome

    def test_non_finite_and_overflowing_matrices_are_not_certified(self):
        for entry in (np.nan, np.inf, 1e200):
            m = np.array([[0.0, entry], [0.1, 0.0]])
            assert _with_coefficients(m).certified_stable is False

    def test_bundled_model_is_certified(self, iverson_model):
        assert iverson_model.certified_stable


class TestConvergenceProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_neumann_partial_sums_converge(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m *= 0.5 / sc.spectral_radius(m)
        target = np.linalg.inv(np.eye(n) - m)
        partial = np.zeros((n, n))
        power = np.eye(n)
        for _ in range(100):
            partial = partial + power
            power = power @ m
        assert np.linalg.norm(partial - target, "fro") < 1e-6

    def test_powers_vanish_monotonically(self, rng):
        m = rng.normal(size=(6, 6))
        m *= 0.7 / sc.spectral_radius(m)
        norms = []
        power = np.eye(6)
        for _ in range(60):
            power = power @ m
            norms.append(np.linalg.norm(power, "fro"))
        tail = norms[10:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 1e-6

    def test_characteristic_equation_factorizes(self):
        for seed in range(5):
            model, treatment, response = random_cyclic_model(seed)
            part = sc.partition_vertices(model, treatment, response)
            coeff = model.coefficients
            whole = np.sort_complex(np.linalg.eigvals(coeff))
            fb = part.descendants + (part.treatment,)
            block_eigs = np.concatenate([
                np.linalg.eigvals(part.submatrix(coeff, fb, fb)),
                np.linalg.eigvals(
                    part.submatrix(coeff, part.nondescendants, part.nondescendants)
                )
                if part.nondescendants
                else np.zeros(0, dtype=complex),
            ])
            assert np.allclose(whole, np.sort_complex(block_eigs), atol=1e-8)


class TestModelFiles:
    def test_round_trip(self, tmp_path, iverson_model):
        path = tmp_path / "model.json"
        sc.save_model(iverson_model, path)
        loaded = sc.load_model(path)
        assert loaded.variables == iverson_model.variables
        assert np.array_equal(loaded.coefficients, iverson_model.coefficients)
        assert np.array_equal(loaded.intercepts, iverson_model.intercepts)
        assert np.array_equal(
            loaded.disturbance_variances, iverson_model.disturbance_variances
        )
        assert sc.model_hash(loaded) == sc.model_hash(iverson_model)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": ["A"], "edges": [], "extra": 1}')
        with pytest.raises(sc.InputFormatError, match="unknown model keys"):
            sc.load_model(path)

    def test_unknown_edge_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"variables": ["A", "B"],'
            ' "edges": [{"from": "A", "to": "B", "coeff": 1.0, "extra": 2}]}'
        )
        with pytest.raises(sc.InputFormatError, match="unknown edge keys"):
            sc.load_model(path)

    def test_unknown_variable_in_map_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": ["A"], "edges": [], "intercepts": {"B": 1.0}}')
        with pytest.raises(sc.InputFormatError, match="unknown variables"):
            sc.load_model(path)

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"variables": ["A", "B"], "edges": [{"from": "A", "to": "B", "coeff": 0.5}]}')
        model = sc.load_model(path)
        assert np.array_equal(model.intercepts, [0.0, 0.0])
        assert np.array_equal(model.disturbance_variances, [1.0, 1.0])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(sc.InputFormatError, match="invalid JSON"):
            sc.load_model(path)


def reference_validate(model, partition=None):
    """validate_model as a loop over every cell and edge: the reference the
    vectorised function must match, message for message and in order."""
    violations = []
    diagram = model.diagram
    coeff = model.coefficients
    if not np.isfinite(coeff).all():
        violations.append("coefficients contain non-finite entries")
    if not np.isfinite(model.intercepts).all():
        violations.append("intercepts contain non-finite entries")
    if not np.isfinite(model.disturbance_variances).all():
        violations.append("disturbance variances contain non-finite entries")
    for i, name in enumerate(diagram.vertices):
        if coeff[i, i] != 0.0:
            violations.append(f"self-loop at vertex {name}")
    for s, t in diagram.edges:
        if s == t:
            violations.append(f"self-loop edge {s} -> {t}")
    counts = {}
    for e in diagram.edges:
        counts[e] = counts.get(e, 0) + 1
    for (s, t), k in counts.items():
        if k > 1:
            violations.append(f"duplicate edge {s} -> {t}")
    for i, child in enumerate(diagram.vertices):
        for j, parent in enumerate(diagram.vertices):
            if i == j:
                continue
            on_edge = diagram.has_edge(parent, child)
            if on_edge and coeff[i, j] == 0.0:
                violations.append(f"edge {parent} -> {child} has zero coefficient")
            elif not on_edge and coeff[i, j] != 0.0:
                violations.append(f"coefficient without edge {parent} -> {child}")
    for i, name in enumerate(diagram.vertices):
        if model.disturbance_variances[i] < 0.0:
            violations.append(f"negative disturbance variance at {name}")
    if partition is not None:
        forbidden = partition.descendants + (partition.treatment,)
        for t_name in partition.nondescendants:
            for p_name in forbidden:
                if coeff[model.index(t_name), model.index(p_name)] != 0.0:
                    violations.append(
                        f"nondescendant block not zero: {t_name} depends on {p_name}"
                    )
    return violations


_ODD_VALUES = [0.5, -1.25, 1e-300, -0.0, np.nan, np.inf, -np.inf]


@st.composite
def faulty_models(draw):
    """Small models with injected faults: self-loop and duplicate edges,
    zeroed edge coefficients, stray and diagonal coefficients, negative and
    non-finite values; plus a hand-made (often wrong) partition."""
    n = draw(st.integers(1, 5))
    names = tuple(f"V{i}" for i in range(n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    coeff = np.zeros((n, n))
    for s, t in edges:
        coeff[t, s] = draw(st.sampled_from([0.5, -1.25, 0.3, 0.0, -0.0]))
    for _ in range(draw(st.integers(0, 3))):
        coeff[draw(vertex), draw(vertex)] = draw(st.sampled_from(_ODD_VALUES))
    cells = st.lists(st.sampled_from([1.0, 0.0, -0.0, -0.5, np.nan, np.inf]),
                     min_size=n, max_size=n)
    model = sc.StructuralModel(
        sc.PathDiagram(names, [(names[s], names[t]) for s, t in edges]),
        coeff, draw(cells), draw(cells),
    )
    descendant = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    rest = names[1:]
    partition = sc.VertexPartition(
        variables=names,
        treatment=names[0],
        response=names[0],
        descendants=tuple(v for v, d in zip(rest, descendant) if d),
        nondescendants=tuple(v for v, d in zip(rest, descendant) if not d),
        controls=(),
        covariates=(),
    )
    return model, partition


class TestValidateMatchesReference:
    @given(faulty_models())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_violations_in_same_order(self, case):
        model, partition = case
        assert sc.validate_model(model) == reference_validate(model)
        assert sc.validate_model(model, partition) == reference_validate(model, partition)

    def test_random_cyclic_models_are_valid(self):
        for seed in range(10):
            model, treatment, response = random_cyclic_model(seed)
            part = sc.partition_vertices(model, treatment, response)
            assert sc.validate_model(model, part) == reference_validate(model, part) == []


def reference_load(payload):
    """The per-edge loader: float() of each coefficient, the matrix filled
    edge by edge in file order, so a repeated edge keeps its last value."""
    variables = payload["variables"]
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    coeff = np.zeros((n, n))
    for e in payload["edges"]:
        coeff[index[e["to"]], index[e["from"]]] = float(e["coeff"])
    mu, dvar = np.zeros(n), np.ones(n)
    for name, value in payload.get("intercepts", {}).items():
        mu[index[name]] = float(value)
    for name, value in payload.get("disturbance_variances", {}).items():
        dvar[index[name]] = float(value)
    edges = tuple((e["from"], e["to"]) for e in payload["edges"])
    return sc.PathDiagram(tuple(variables), edges), coeff, mu, dvar


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


_COEFFS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def model_payloads(draw):
    n = draw(st.integers(1, 6))
    names = [f"V{i}" for i in range(n)]
    vertex = st.sampled_from(names)
    edges = draw(st.lists(st.fixed_dictionaries(
        {"from": vertex, "to": vertex, "coeff": _COEFFS}), max_size=12))
    payload = {"variables": names, "edges": edges}
    for key in ("intercepts", "disturbance_variances"):
        if draw(st.booleans()):
            payload[key] = draw(st.dictionaries(vertex, st.floats(-10, 10)))
    return payload


class TestModelLoader:
    @given(model_payloads())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_per_edge_loader(self, payload):
        model = model_from_dict(payload)
        diagram, coeff, mu, dvar = reference_load(payload)
        assert model.diagram == diagram
        assert same_bits(model.coefficients, coeff)
        assert same_bits(model.intercepts, mu)
        assert same_bits(model.disturbance_variances, dvar)

    def test_generated_large_model_matches_per_edge_loader(self):
        model, _, _ = random_cyclic_model(3, n_min=40, n_max=40)
        payload = model_to_dict(model)
        loaded = model_from_dict(payload)
        diagram, coeff, mu, dvar = reference_load(payload)
        assert loaded.diagram == diagram == model.diagram
        assert same_bits(loaded.coefficients, coeff)
        assert same_bits(loaded.coefficients, model.coefficients)
        assert same_bits(loaded.intercepts, mu) and same_bits(loaded.disturbance_variances, dvar)

    @pytest.mark.parametrize("coeff, value", [
        (True, 1.0), (False, 0.0), (2, 2.0), (2**60 + 1, float(2**60 + 1)),
        ("0.25", 0.25), (" -1e-3 ", -0.001),
    ])
    def test_coefficients_that_float_accepts(self, coeff, value):
        model = model_from_dict({
            "variables": ["Y", "X"],
            "edges": [{"from": "Y", "to": "X", "coeff": 0.5},
                      {"from": "X", "to": "Y", "coeff": coeff}],
        })
        assert model.coefficients[0, 1] == value
        assert model.coefficients[1, 0] == 0.5

    def test_duplicate_edge_keeps_last_coefficient(self):
        model = model_from_dict({
            "variables": ["Y", "X"],
            "edges": [{"from": "X", "to": "Y", "coeff": 0.5},
                      {"from": "Y", "to": "X", "coeff": 0.1},
                      {"from": "X", "to": "Y", "coeff": 0.25}],
        })
        assert model.coefficients[0, 1] == 0.25
        assert model.diagram.edges == (("X", "Y"), ("Y", "X"), ("X", "Y"))
        assert sc.validate_model(model) == ["duplicate edge X -> Y"]

    @pytest.mark.parametrize("edges, message", [
        ([{"from": "X", "to": "Y", "coeff": "half"}],
         "edge X -> Y 'coeff' must be a number, got 'half'"),
        ([{"from": "X", "to": "Y", "coeff": None}],
         "edge X -> Y 'coeff' must be a number, got None"),
        ([{"from": "X", "to": "Y", "coeff": 10**400}],
         f"edge X -> Y 'coeff' must be a number, got {10**400}"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": "X", "coeff": 0.1, "w": 1}], "unknown edge keys: ['w']"),
        ([{"from": "X", "to": "Y"}], "edge missing key 'coeff'"),
        ([{"from": "X", "to": "Y", "weight": 0.5}], "unknown edge keys: ['weight']"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": 3, "coeff": 0.1}], "edge 'from' and 'to' must be variable names"),
        ([{"from": "X", "to": "Y", "coeff": 0.5}, ["Y", "X", 0.1]],
         "each edge must be an object"),
        ([{"from": "X", "to": "Y", "coeff": 0.5},
          {"from": "Y", "to": "Q", "coeff": 0.1}], "edge ('Y', 'Q') references an unknown vertex"),
    ], ids=["text", "null", "huge-int", "extra-key", "missing-key", "renamed-key",
            "non-string-end", "not-an-object", "unknown-vertex"])
    def test_malformed_edge_named(self, edges, message):
        with pytest.raises(sc.InputFormatError) as info:
            model_from_dict({"variables": ["Y", "X"], "edges": edges})
        assert str(info.value) == message

    def test_duplicate_variable_names(self):
        with pytest.raises(sc.InputFormatError, match="^duplicate vertex names$"):
            model_from_dict({"variables": ["Y", "X", "Y"], "edges": []})

    def test_value_faults_come_before_graph_faults(self):
        # as in the per-edge loader: the intercept is read before the diagram is built
        with pytest.raises(sc.InputFormatError) as info:
            model_from_dict({
                "variables": ["Y", "X"],
                "edges": [{"from": "Q", "to": "Y", "coeff": 0.1}],
                "intercepts": {"Y": "a"},
            })
        assert str(info.value) == "'intercepts' value for 'Y' must be a number, got 'a'"


def _load_outcome(path):
    """What ``load_model`` gives: the model, bit for bit, with its digest, or its error."""
    try:
        m = sc.load_model(path)
    except sc.InputFormatError as exc:
        return str(exc)
    return (m.variables, m.diagram.sources.tobytes(), m.diagram.targets.tobytes(),
            m.coefficients.tobytes(), m.intercepts.tobytes(),
            m.disturbance_variances.tobytes(), sc.model_hash(m))


def _kernel_outcome(path) -> tuple[bool, object]:
    """Whether the edge kernel read the file, and what ``load_model`` gives; which must be
    what ``json.loads`` and ``model_from_dict`` give with the kernel declining."""
    read, kernel = [], model_module._read_edge_list

    def spy(data):
        columns = kernel(data)
        read.append(columns is not None)
        return columns

    with mock.patch.object(model_module, "_read_edge_list", spy):
        outcome = _load_outcome(path)
    with mock.patch.object(model_module, "_read_edge_list", lambda data: None):
        assert _load_outcome(path) == outcome
    return read == [True], outcome


#: Names with the bytes of JSON's punctuation, spaces, text that is not ASCII, and more
#: bytes than one word of the kernel's name keys.
_NAMES = st.one_of(
    st.sampled_from(["A", "B.1", "x,y", "}", "]", "a:b", " ", "", "é", "名前", "😀",
                     "a much longer variable name", "Z" * 8, "Z" * 9]),
    st.text(st.characters(min_codepoint=0x20, blacklist_categories=("Cs",),
                          blacklist_characters='"\\'), max_size=20),
)

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1, -2.5, 123456789.125, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: The edits of a well-formed file's bytes that it must decline, or read as json.loads does.
_MUTATIONS = ["bom", "backslash", "second-edges", "nested-edges", "control-byte",
              "leading-zero", "bare-point", "integer", "unclosed"]


@st.composite
def model_files(draw):
    """A model file's bytes, and whether the kernel must read it."""
    # half the files each with distinct names, known ends and float coefficients only
    names = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=draw(st.booleans())))
    end = draw(st.sampled_from([st.sampled_from(names), st.one_of(st.sampled_from(names),
                                                                  _NAMES)]))
    coeff = draw(st.sampled_from([_FLOATS, st.one_of(_FLOATS, _COEFFS)]))
    edges = draw(st.lists(st.tuples(end, end, coeff), min_size=draw(st.integers(0, 1)),
                          max_size=10))
    payload = {"variables": names,
               "edges": [{"from": s, "to": t, "coeff": c} for s, t, c in edges]}
    for key in ("intercepts", "disturbance_variances"):
        if draw(st.booleans()):
            payload[key] = draw(st.dictionaries(st.sampled_from(names), _FLOATS))
    layout = draw(st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")}]))
    # escaped as ``\\u...``, a name that is not ASCII declines the file
    ascii_only = draw(st.sampled_from([False, False, True]))
    text = json.dumps(payload, ensure_ascii=ascii_only, **layout).encode()
    mutation = draw(st.one_of(st.none(), st.sampled_from(_MUTATIONS)))
    numbers = list(re.finditer(rb'"coeff": ?([^,}\s]+)', text))
    if mutation == "bom":
        text = b"\xef\xbb\xbf" + text
    elif mutation == "backslash":
        text = text.replace(b'"variables": [', b'"variables": ["a\\\\b", ', 1)
    elif mutation == "second-edges":
        text = text[:-1] + b', "edges": []}'
    elif mutation == "nested-edges":
        text = text.replace(b'"variables"', b'"more": {"edges": %s}, "variables"' % (
            json.dumps(payload["edges"]).encode()), 1)
    elif mutation == "control-byte" and text.count(b'"to": "'):
        text = text.replace(b'"to": "', b'"to": "\x01', 1)
    elif mutation in ("leading-zero", "bare-point", "integer") and numbers:
        number = draw(st.sampled_from(numbers))
        cell = {"leading-zero": b"01.5", "bare-point": b".5", "integer": b"2"}[mutation]
        text = text[:number.start(1)] + cell + text[number.end(1):]
    elif mutation == "unclosed":
        text = text[:text.rfind(b"]", 0, text.find(b'"intercepts"') % (len(text) + 1))]
    clean = (mutation in (None, "bom") and b"\\" not in text and bool(edges)
             and len(set(names)) == len(names)
             and all(s in names and t in names and type(c) is float and np.isfinite(c)
                     for s, t, c in edges))
    return text, clean


@functools.cache
def _large_model():
    """A random 512-variable model, of the size of the benchmark's large models."""
    return random_cyclic_model(1, n_min=512, n_max=512)[0]


def _renamed(model, name: str):
    """``model`` with its first variable named ``name``."""
    names = (name, *model.variables[1:])
    return sc.StructuralModel(
        sc.PathDiagram._of(names, model.diagram.sources, model.diagram.targets),
        model.coefficients, model.intercepts, model.disturbance_variances)


class TestEdgeKernel:
    """The model file's edge kernel: a file that it reads gives what ``json.loads`` and
    ``model_from_dict`` give, and any other falls to them."""

    @settings(max_examples=400, deadline=None)
    @given(case=model_files())
    def test_matches_json_loads(self, tmp_path_factory, case):
        text, clean = case
        path = tmp_path_factory.mktemp("model") / "m.json"
        path.write_bytes(text)
        read, _ = _kernel_outcome(path)
        assert read or not clean

    def test_reads_the_layouts_that_the_package_and_the_benchmark_write(self, tmp_path):
        model = _large_model()
        saved, dumped = tmp_path / "saved.json", tmp_path / "dumped.json"
        sc.save_model(model, saved)
        dumped.write_text(json.dumps(model_to_dict(model)))
        for path in (saved, dumped):
            read, outcome = _kernel_outcome(path)
            assert read and outcome[-1] == sc.model_hash(model)
        # a name that is not ASCII is saved as UTF-8, not \u-escaped, so the kernel reads it
        named = _renamed(model, "V\u00e9")
        sc.save_model(named, saved)
        assert '"V\u00e9"'.encode() in saved.read_bytes()
        read, outcome = _kernel_outcome(saved)
        assert read and outcome[-1] == sc.model_hash(named)

    @pytest.mark.parametrize("declined", ["integers", "escaped-name"])
    def test_a_declined_large_file_reads_as_its_twin(self, tmp_path, declined):
        """A 512-variable file that the kernel declines gives, through the per-edge loop,
        the model of a twin file that the kernel reads."""
        path, twin = tmp_path / "declined.json", tmp_path / "twin.json"
        model = _large_model()
        if declined == "integers":
            payload = model_to_dict(model)
            scaled = [round(edge["coeff"] * 1000) for edge in payload["edges"]]
            for number, file in ((int, path), (float, twin)):
                for edge, k in zip(payload["edges"], scaled):
                    edge["coeff"] = number(k)
                file.write_text(json.dumps(payload))
        else:
            model = _renamed(model, "V\u00e9")
            path.write_text(json.dumps(model_to_dict(model), indent=2))
            assert b'"V\\u00e9"' in path.read_bytes()
            twin.write_text(json.dumps(model_to_dict(model), indent=2, ensure_ascii=False),
                            encoding="utf-8")
        read, outcome = _kernel_outcome(path)
        twin_read, twin_outcome = _kernel_outcome(twin)
        assert twin_read and not read
        assert outcome == twin_outcome
        if declined == "escaped-name":
            assert outcome[-1] == sc.model_hash(model)

    _BASE = ('{"variables": ["A", "B", "C"], "edges": [{"from": "A", "to": "B", "coeff": 0.5}, '
             '{"from": "B", "to": "C", "coeff": -1.25e-3}, {"from": "C", "to": "A", '
             '"coeff": 0.0625}], "intercepts": {"B": 1.5}}')

    @pytest.mark.parametrize("old, new", [
        ('"A", "B", "C"]', '"A", "B", "C", "D\\\\"]'),
        ('"coeff": 0.5', '"coeff": 01.5'),
        ('"coeff": 0.5', '"coeff": .5'),
        ('"coeff": 0.5', '"coeff": 5.'),
        ('"coeff": 0.5', '"coeff": 5'),
        ('"coeff": 0.5', '"coeff": -0'),
        ('"coeff": 0.5', '"coeff": NaN'),
        ('"coeff": 0.5', '"coeff": +0.5'),
        ('"coeff": 0.0625', '"coeff": 0.0625e'),
        ('"coeff": 0.0625', '"coeff": 1_0.5'),
        ('"coeff": -1.25e-3', '"coeff": "-1.25e-3"'),
        ('"to": "C"', '"to": "Q"'),
        ('"to": "C"', '"to": "C\x01"'),
        ('"to": "C"', '"to":"C"'),
        ('"to": "C"', '"to": "C", "coeff": 1.0'),
        ('{"from": "C", "to": "A", ', '{"to": "A", "from": "C", '),
        ('"coeff": 0.0625}]', '"coeff": 0.0625}'),
        ('"coeff": 0.0625}]', '"coeff": 0.0625}]]'),
        ('"coeff": 0.0625}]', '"coeff": 0.0625},]'),
        (', "intercepts"', ', "edges": [], "intercepts"'),
        ('{"variables"', '{"more": {"edges": [{"from": "A", "to": "B", "coeff": 0.5}]}, '
                         '"variables"'),
        ('{"variables"', '[{"variables"'),
    ], ids=["backslash", "leading-zero", "bare-point", "bare-fraction", "integer",
            "minus-zero", "nan", "plus", "bare-exponent", "underscore", "string", "unknown-name",
            "control-byte", "other-spacing", "repeated-key", "other-key-order", "unclosed",
            "extra-close", "trailing-comma", "second-edges", "nested-edges", "array"])
    def test_declines_a_file_that_it_cannot_account_for(self, tmp_path, old, new):
        assert old in self._BASE
        path = tmp_path / "m.json"
        path.write_text(self._BASE.replace(old, new, 1), encoding="utf-8")
        read, _ = _kernel_outcome(path)
        assert not read

    @pytest.mark.parametrize("text", [
        _BASE, "﻿" + _BASE, _BASE.replace(": ", ":").replace(", ", ","),
        json.dumps(json.loads(_BASE), indent=2), json.dumps(json.loads(_BASE), indent="\t"),
        _BASE.replace('"B", "C"', '"B.}]:, ", "C"').replace('"B"', '"B.}]:, "'),
        _BASE.replace('"A"', '"é名前 and a name of many words"'),
        _BASE.replace("0.0625", "6.25E+400").replace("0.5", "-0.0"),
    ], ids=["spaces", "bom", "compact", "indent", "tab-indent", "punctuation", "long-name",
            "exponents"])
    def test_reads_json_dumps_layouts(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        read, outcome = _kernel_outcome(path)
        assert read and not isinstance(outcome, str)

    @pytest.mark.parametrize("integer", [2**53 + 1, 10**20 + 1, 2**64 + 1, -(2**63) - 1])
    def test_integer_coefficients_read_as_float_reads_them(self, tmp_path, integer):
        coeffs = [integer, -integer, integer + 2]
        text = self._BASE
        for old, new in zip(["0.5", "-1.25e-3", "0.0625"], coeffs):
            text = text.replace(f'"coeff": {old}', f'"coeff": {new}', 1)
        path = tmp_path / "m.json"
        path.write_text(text)
        read, _ = _kernel_outcome(path)
        assert not read
        # the edges A -> B, B -> C and C -> A
        assert sc.load_model(path).coefficients[[1, 2, 0], [0, 1, 2]].tolist() == [
            float(c) for c in coeffs]

    @pytest.mark.parametrize("name, error", [
        ("B\x01B", "invalid JSON in {path}: Invalid control character at: "),
        ("B", "unknown model keys: ['extra']"),
    ], ids=["control-byte", "clean"])
    def test_keys_are_checked_after_the_names_and_numbers(self, tmp_path, name, error):
        """An unknown key is named once every name and number is read: a control byte in a
        name is first the fault of the JSON, as json.loads names it."""
        path = tmp_path / "m.json"
        path.write_text(self._BASE.replace('"to": "B"', f'"to": "{name}"', 1)[:-1]
                        + ', "extra": 1}')
        _, outcome = _kernel_outcome(path)
        assert outcome.startswith(error.format(path=path))
        if name == "B":  # the kernel reads the file, and refuses the key itself
            with pytest.raises(sc.InputFormatError, match="unknown model keys"):
                model_module._read_edge_list(path.read_bytes())

    @pytest.mark.parametrize("text, key", [
        ('{"variables": ["A", "B"], "edges": [{"from": "A", "to": "B", "coeff": 0.5}], '
         '"edges": []}', "edges"),
        ('{"variables": ["A", "B"], "edges": [{"from": "A", "to": "B", "coeff": 0.5, '
         '"coeff": 0.7}]}', "coeff"),
        ('{"variables": ["A", "B"], "edges": [], "intercepts": {"A": 1.0, "B": 2.0, '
         '"A": 3.0}}', "A"),
    ])
    def test_a_repeated_key_is_refused(self, tmp_path, text, key):
        path = tmp_path / "m.json"
        path.write_text(text)
        read, outcome = _kernel_outcome(path)
        assert not read and outcome == f"invalid JSON in {path}: duplicate key {key!r}"


class TestModelHash:
    def test_pinned_iverson_digest(self, iverson_model):
        assert sc.model_hash(iverson_model) == "e1470deda06a"

    @staticmethod
    def variant(model, *, names=None, edges=None, coeff=None, mu=None, dvar=None):
        return sc.StructuralModel(
            sc.PathDiagram(names or model.variables, edges or model.diagram.edges),
            model.coefficients if coeff is None else coeff,
            model.intercepts if mu is None else mu,
            model.disturbance_variances if dvar is None else dvar,
        )

    def test_every_part_of_the_model_is_covered(self, iverson_model):
        m = iverson_model
        coeff = m.coefficients.copy()
        coeff[0, 1] = np.nextafter(coeff[0, 1], 1.0)  # one bit
        mu = m.intercepts.copy()
        mu[2] = 0.5
        dvar = m.disturbance_variances.copy()
        dvar[4] = 2.0
        names = ("Y", "X", "Z1", "Z2", "W3")
        edges = m.diagram.edges[:-1] + (("Z2", "Z3"),)
        variants = [
            self.variant(m, coeff=coeff),
            self.variant(m, mu=mu),
            self.variant(m, dvar=dvar),
            self.variant(m, names=names, edges=tuple(
                tuple("W3" if v == "Z3" else v for v in e) for e in m.diagram.edges)),
            self.variant(m, edges=edges),
            self.variant(m, edges=m.diagram.edges[::-1]),
        ]
        digests = {sc.model_hash(v) for v in variants} | {sc.model_hash(m)}
        assert len(digests) == len(variants) + 1

    def test_save_load_round_trip_keeps_digest(self, tmp_path):
        for seed in range(5):
            model, _, _ = random_cyclic_model(seed)
            path = tmp_path / f"m{seed}.json"
            sc.save_model(model, path)
            assert sc.model_hash(sc.load_model(path)) == sc.model_hash(model)
