"""The public surface, pinned: ``csinterlace.__all__``, the public names
each module binds at its top level and the signatures of the certifying
calls, so that every change to the API shows in the diff; the
command-line choices against the tables they read; and the import
structure of the package, read from its source."""

import ast
import graphlib
import importlib
import inspect
from pathlib import Path

import click
import pytest

import csinterlace
from csinterlace import golay, interlace, linksim, seqcore
from csinterlace.cli import main

ALL = [
    "__version__", "ConstructionParams", "GolayPair", "combine_gcps", "enumerate_gcps",
    "InterlaceConfig", "SparseSpectrum", "SimConfig", "SimReport", "run_sim", "cm_db",
    "papr_db", "synthesize", "SequenceSetPair", "build_sets", "verify_sets",
]

PUBLIC = {
    "seqcore": [
        "QUATERNARY_SYMBOLS", "QUATERNARY_VALUES", "as_sequence", "format_quaternary",
        "is_gcp", "parse_quaternary", "sequence_from_json",
    ],
    "golay": [
        "CertificationError", "ConstructionParams", "GolayPair", "MAX_ENUMERATION_LENGTH",
        "cached_enumerate_gcps", "combine_gcps", "enumerate_gcps", "equivalence_orbit",
        "is_complementary_sequence", "read_library", "write_library",
    ],
    "interlace": [
        "InterlaceConfig", "PILOT_PHASE", "QPSK_PHASES", "SCHEMES", "Scheme",
        "SparseSpectrum", "cycling_baseline", "payload_phase", "zadoff_chu_set", "zc_sequence",
    ],
    "metrics": ["ccdf", "cm_db", "papr_db", "synthesize", "xcorr_matrix"],
    "setsearch": ["AdmissionRecord", "SequenceSetPair", "VerifyReport", "build_sets",
                  "verify_sets"],
    "linksim": [
        "CHANNELS", "CalibrationError", "PointStats", "SCHEMES", "SimConfig", "SimReport",
        "calibrate_dtx_threshold", "run_sim",
    ],
    "fixtures": ["load_coherent_example", "load_noncoherent_spread", "load_reference_pairs",
                 "reference_set_params"],
    "cli": [
        "DEFAULT_N_IDFT", "FIGURES", "PAPR_BOUND_DB", "build_interlace", "enumerate_gcps_cmd",
        "eval_xcorr", "import_sequences", "main", "reproduce", "search_sets", "simulate_link",
    ],
}


def top_level_public_names(module) -> list[str]:
    """Names a module's source binds at its top level (functions, classes,
    assignments) that do not start with an underscore, sorted."""
    names = []
    for node in ast.parse(open(module.__file__).read()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return sorted(n for n in names if not n.startswith("_"))


def test_package_all():
    assert csinterlace.__all__ == ALL


@pytest.mark.parametrize("name", list(PUBLIC))
def test_module_public_names(name):
    module = importlib.import_module(f"csinterlace.{name}")
    assert top_level_public_names(module) == PUBLIC[name]


# No certifying call takes a tolerance, and a pair holds no flag.
SIGNATURES = {
    seqcore.is_gcp: "(a, b) -> 'bool'",
    golay.combine_gcps:
        "(first: 'GolayPair', second: 'GolayPair', params: 'ConstructionParams') -> 'GolayPair'",
    golay.equivalence_orbit: "(pair: 'GolayPair') -> 'list[GolayPair]'",
    golay.GolayPair: "(a: 'np.ndarray', b: 'np.ndarray') -> None",
}


@pytest.mark.parametrize("func", list(SIGNATURES), ids=lambda f: f.__name__)
def test_certifying_signatures(func):
    assert str(inspect.signature(func)) == SIGNATURES[func]


def choices(command: str, option: str) -> list[str]:
    param = next(p for p in main.commands[command].params if p.name == option)
    return list(param.type.choices)


def test_cli_choices_are_the_table_keys():
    assert list(interlace.SCHEMES) == [
        "noncoherent", "noncoherent-adjacent", "coherent", "cycling", "zc"]
    assert choices("build-interlace", "scheme") == list(interlace.SCHEMES)
    for command in ("eval-papr", "eval-cm"):
        assert choices(command, "scheme") == ["all", *interlace.SCHEMES]
    assert linksim.SCHEMES == (
        "noncoherent", "coherent", "single-rb-noncoherent", "single-rb-coherent")
    assert choices("simulate-link", "scheme") == list(linksim.SCHEMES)
    assert choices("simulate-link", "channel") == list(linksim.CHANNELS)


SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(csinterlace.__file__).parent.glob("*.py"))}


def import_statements(tree):
    """Each import statement of a module with whether a function holds it."""
    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, in_function
            yield from visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return visit(tree, False)


def package_modules(statement) -> set[str]:
    """The package's modules that an import statement names by their stems;
    ``__init__`` for a name that the package itself binds."""
    if isinstance(statement, ast.Import):
        names = [alias.name for alias in statement.names]
    else:
        module = ".".join(filter(None, ["csinterlace" if statement.level else "",
                                        statement.module]))
        names = ([module] if statement.module
                 else [f"{module}.{alias.name}" for alias in statement.names])
    parts = [name.split(".") for name in names]
    return {p[1] if len(p) > 1 and p[1] in SOURCES else "__init__"
            for p in parts if p[0] == "csinterlace"}


@pytest.mark.parametrize("name", list(SOURCES))
def test_no_package_import_inside_a_function(name):
    nested = [statement.lineno for statement, in_function in import_statements(SOURCES[name])
              if in_function and package_modules(statement)]
    assert nested == []


def test_module_level_imports_are_acyclic():
    graph = {name: set() for name in SOURCES}
    for name, tree in SOURCES.items():
        for statement, in_function in import_statements(tree):
            if not in_function:
                graph[name] |= package_modules(statement)
    assert graph["linksim"] == {"interlace"} and graph["cli"] >= {"__init__", "setsearch"}
    assert graph["metrics"] == set()  # it reports; it builds nothing of the package
    graphlib.TopologicalSorter(graph).prepare()  # a cycle is a CycleError naming it


# Called by no pipeline, only by the benchmark's ``library-cold`` queries;
# it goes when a benchmark change drops them (ROADMAP item 22).
UNREFERENCED = {("golay", "is_complementary_sequence")}


def defined_names(node) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def referenced_names(node) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names |= {alias.name for alias in child.names}
    return names


def test_every_top_level_name_is_used_in_the_package():
    # A name only its own definition and the tests read is code to delete;
    # click commands are reached through their group.
    statements = [(module, node) for module, tree in SOURCES.items() for node in tree.body]
    readers = {}  # name -> the statements that read it
    for index, (_, node) in enumerate(statements):
        for name in referenced_names(node):
            readers.setdefault(name, set()).add(index)
    unused = []
    for index, (module, node) in enumerate(statements):
        for name in defined_names(node):
            used = bool(readers.get(name, set()) - {index})
            package = "csinterlace" + ("" if module == "__init__" else f".{module}")
            value = getattr(importlib.import_module(package), name, None)
            if not (used or name == "__all__" or isinstance(value, click.Command)
                    or (module, name) in UNREFERENCED):
                unused.append(f"{module}.{name}")
    assert unused == []


def test_only_seqcore_reads_sequence_formats():
    # The outside formats of a sequence have one boundary: the symbol alphabet and the
    # JSON decode (``json.loads`` and its duplicate-key hook) are read in seqcore alone.
    formats = {"QUATERNARY_SYMBOLS", "loads", "_unique_keys"}
    readers = {name: sorted(referenced_names(tree) & formats) for name, tree in SOURCES.items()}
    assert {name: names for name, names in readers.items() if names} == {
        "seqcore": sorted(formats)}
