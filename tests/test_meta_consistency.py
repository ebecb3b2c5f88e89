"""Meta-consistency checks between benchmarks, reporting, and docs.

These guard the reproduction pipeline itself: every benchmark artefact a
module writes must be registered in the EXPERIMENTS.md generator, and the
canonical experiment ids stay in sync.
"""

import ast
import re
from pathlib import Path


from repro.reporting import ORDER, PAPER_CLAIMS, TITLES

ROOT = Path(__file__).parent.parent
BENCHMARKS = ROOT / "benchmarks"


def artefact_ids_in_benchmarks():
    """Every results_sink("<id>", ...) call across the bench modules."""
    ids = set()
    for path in BENCHMARKS.glob("bench_*.py"):
        for match in re.finditer(r"results_sink\(\s*['\"]([\w-]+)['\"]", path.read_text()):
            ids.add(match.group(1))
    return ids


class TestPipelineConsistency:
    def test_every_artefact_registered_in_reporting(self):
        ids = artefact_ids_in_benchmarks()
        assert ids, "no benchmarks found?"
        unregistered = ids - set(ORDER)
        assert not unregistered, (
            f"benchmarks write artefacts {sorted(unregistered)} that "
            f"EXPERIMENTS.md generation would bury in the 'extra' section; "
            f"register them in repro.reporting.ORDER/TITLES/PAPER_CLAIMS"
        )

    def test_every_registered_id_has_title_and_claim(self):
        for exp_id in ORDER:
            assert exp_id in TITLES, exp_id
            assert exp_id in PAPER_CLAIMS, exp_id

    def test_no_stale_registrations(self):
        ids = artefact_ids_in_benchmarks()
        stale = set(ORDER) - ids
        assert not stale, (
            f"reporting registers {sorted(stale)} but no benchmark writes them"
        )

    def test_paper_experiments_all_covered(self):
        """The paper's five experiments and both observation figures."""
        required = {"fig4a", "fig4b", "exp1", "exp2", "exp3", "exp4", "exp5"}
        assert required <= set(ORDER)

    def test_bench_modules_have_docstrings_naming_their_figure(self):
        for path in BENCHMARKS.glob("bench_exp*.py"):
            head = path.read_text().split('"""')[1]
            assert "Figure" in head or "figure" in head, path.name


SRC = ROOT / "src" / "repro"
CORE = SRC / "core" / "stripe_repair.py"


def src_files():
    return sorted(SRC.rglob("*.py"))


def count_defs(name_pattern):
    """How many ``def`` statements in src/ match the (anchored) pattern."""
    pattern = re.compile(rf"^\s*(?:async\s+)?def\s+{name_pattern}\s*\(", re.M)
    return {
        str(p.relative_to(ROOT)): len(pattern.findall(p.read_text()))
        for p in src_files()
        if pattern.search(p.read_text())
    }


class TestOneSalvageLadder:
    """The per-stripe repair machine exists once, behind narrow interfaces."""

    def test_core_is_sans_io(self):
        banned = ("asyncio", "threading", "time", "repro.hdss.store",
                  "repro.journal", "repro.service")
        imported = set()
        for node in ast.walk(ast.parse(CORE.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        leaked = {
            mod for mod in imported
            if any(mod == b or mod.startswith(b + ".") for b in banned)
        }
        assert not leaked, f"stripe_repair.py must stay sans-I/O; imports {leaked}"

    def test_helpers_defined_once(self):
        assert count_defs(r"_?rounds_of") == {"src/repro/core/stripe_repair.py": 1}
        assert count_defs(r"_?readable_shards") == {
            "src/repro/core/stripe_repair.py": 1
        }

    def test_ladder_lives_only_in_the_core(self):
        for path in src_files():
            if path == CORE:
                continue
            text = path.read_text()
            assert not re.search(r"class\s+_Shard(Dead|Slow)\b", text), path
            if path.name == "partial.py":
                continue  # PartialDecoder defines replan/restart
            assert not re.search(r"\.(replan|restart)\(", text), (
                f"{path}: replan/restart calls belong in core/stripe_repair.py"
            )

    def test_drivers_do_no_policy_arithmetic(self):
        fields = re.compile(r"\.(timeout_seconds|max_retries|backoff|hedge|hedge_threshold_seconds)\b")
        for path in (SRC / "core" / "executor.py", SRC / "service" / "service.py"):
            found = fields.findall(path.read_text())
            assert not found, f"{path}: reads ReadPolicy fields {found}; use decide()"

    def test_stores_answer_for_themselves(self):
        probe = re.compile(r"""getattr\([^,()]+,\s*["'](verify_chunk|_bad)["']""")
        for path in src_files():
            text = path.read_text()
            assert not probe.search(text), f"{path}: probes a store by getattr"
            if path != SRC / "hdss" / "store.py":
                assert "._bad" not in text, f"{path}: reaches into a store's _bad"
