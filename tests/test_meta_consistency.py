"""Meta-consistency checks between benchmarks, reporting, and docs.

These guard the reproduction pipeline itself: every benchmark artefact a
module writes must be registered in the EXPERIMENTS.md generator, and the
canonical experiment ids stay in sync.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
import textwrap
from dataclasses import fields
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


def io_imports(path):
    """Modules ``path`` imports at run time that a sans-I/O core may not:
    event loop, threads, clock, store, journal, service. Imports under
    ``if TYPE_CHECKING:`` name types only and are not followed."""
    banned = ("asyncio", "threading", "time", "repro.hdss.store",
              "repro.journal", "repro.service")
    imported = set()
    todo = [ast.parse(path.read_text())]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return {
        mod for mod in imported
        if any(mod == b or mod.startswith(b + ".") for b in banned)
    }


class TestOneSalvageLadder:
    """The per-stripe repair machine exists once, behind narrow interfaces."""

    def test_core_is_sans_io(self):
        leaked = io_imports(CORE)
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
        for path in (SRC / "core" / "recovery.py", SRC / "service" / "service.py"):
            found = fields.findall(path.read_text())
            assert not found, f"{path}: reads ReadPolicy fields {found}; use decide()"

    def test_one_real_bytes_driver(self):
        """``recover_disk`` runs the daemon's job body; the sequential
        executor and every mention of it are gone."""
        assert not (SRC / "core" / "executor.py").exists()
        name = "DataPath" + "Executor"
        trees = [SRC, ROOT / "tests", ROOT / "tools", ROOT / "benchmarks",
                 ROOT / "examples", ROOT / "docs"]
        files = [p for tree in trees for p in tree.rglob("*") if p.suffix in (".py", ".md")]
        files += [ROOT / "README.md", ROOT / "DESIGN.md"]
        named = [str(p.relative_to(ROOT)) for p in files if name in p.read_text()]
        assert named == []
        assert call_sites(r"\.run_job") == {"src/repro/core/recovery.py:_recover",
                                            "src/repro/service/service.py:_run_repair",
                                            "src/repro/service/service.py:repair_chunk"}

    def test_stores_answer_for_themselves(self):
        probe = re.compile(r"""getattr\([^,()]+,\s*["'](verify_chunk|_bad)["']""")
        for path in src_files():
            text = path.read_text()
            assert not probe.search(text), f"{path}: probes a store by getattr"
            if path != SRC / "hdss" / "store.py":
                assert "._bad" not in text, f"{path}: reaches into a store's _bad"


def functions_matching(path, pattern):
    """``file:function`` for every match of ``pattern`` in ``path``, naming
    the innermost function around it (``<module>`` outside any)."""
    text = path.read_text()
    lines = {text.count("\n", 0, m.start()) + 1 for m in re.finditer(pattern, text)}
    if not lines:
        return set()
    funcs = [
        n for n in ast.walk(ast.parse(text))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    hits = set()
    for line in lines:
        around = [f for f in funcs if f.lineno <= line <= f.end_lineno]
        innermost = min(around, key=lambda f: f.end_lineno - f.lineno, default=None)
        name = innermost.name if innermost else "<module>"
        hits.add(f"{path.relative_to(ROOT)}:{name}")
    return hits


JOB = SRC / "core" / "repair_job.py"
CLI = SRC / "commands"


def call_sites(pattern):
    """``file:function`` of every call matching ``pattern`` in src/ — a
    ``def`` of the same name is not a call."""
    hits = set()
    for path in src_files():
        hits |= functions_matching(path, rf"(?<!def )\b{pattern}\(")
    return hits


class TestOneRepairJob:
    """Plan → journal/resume → replay → place → finish exist once, in
    ``core/repair_job.py``; the drivers keep only how they do I/O."""

    def test_job_core_is_sans_io(self):
        leaked = io_imports(JOB)
        assert not leaked, f"repair_job.py must stay sans-I/O; imports {leaked}"
        assert not re.search(r"\b(monotonic|perf_counter|sleep)\(", JOB.read_text())

    def test_old_copies_are_gone(self):
        for pattern in (r"_?replay_stripe", r"_?plan_(job|inputs)", "_finish_journal",
                        "_load_resume_state", "_scrub_surviving", "_journaled_outcome",
                        "_export_metrics"):
            assert count_defs(pattern) == {}, pattern
        assert count_defs("plan_repair") == {"src/repro/core/repair_job.py": 1}
        assert count_defs("replay_puts") == {"src/repro/core/repair_job.py": 1}

    def test_one_call_site_each(self):
        assert call_sites(r"\.build_plan") == {
            "src/repro/core/repair_job.py:plan_repair"
        }
        assert call_sites(r"journal\.complete") == {
            "src/repro/core/repair_job.py:finish"
        }
        assert call_sites(r"\.commit_writebacks") == {
            "src/repro/core/repair_job.py:remap"
        }
        assert call_sites("pick_spare") == {"src/repro/core/repair_job.py:place"}

    def test_one_fingerprint_guard_and_one_certified_predicate(self):
        refusals = set()
        for path in src_files():
            refusals |= functions_matching(path, "refusing to resume")
        assert refusals == {"src/repro/core/repair_job.py:resumed"}
        for path in (SRC / "core" / "recovery.py", SRC / "service" / "service.py"):
            text = path.read_text()
            assert "return certified(self.loss, self.scrub)" in text, path
            assert "scrub.unpopulated" not in text, path

    def test_one_certification_and_one_record_per_stripe(self):
        """A job certifies from what it has in hand, once; the full parity
        scrub is the scrub plane's and ``chaos_rig.check_parity_clean``'s.
        Neither driver journals a round or snapshots a decoder — only the
        benchmark still does — and both build a stripe's one record through
        the job's one helper."""
        def uses(pattern):
            hits = set()
            for path in src_files():
                hits |= functions_matching(path, pattern)
            return hits

        drivers = {"src/repro/service/service.py:_repair_stripe"}
        assert count_defs("certify") == {"src/repro/core/repair_job.py": 1}
        assert uses(r"\bjob\.certify\b") == {"src/repro/service/service.py:run_job"}
        for path in (SRC / "core" / "recovery.py", SRC / "service" / "service.py"):
            assert ".scrub(" not in path.read_text(), path
        assert call_sites(r"server\.scrub") == {
            "src/repro/service/chaos_rig.py:check_parity_clean"
        }
        assert uses("checkpoint_due") == set()
        for path in (SRC / "core" / "recovery.py", SRC / "service" / "service.py"):
            assert not re.search(r"round_commit|to_state", path.read_text()), path
        assert uses(r"\.round_commit\(") == set()
        assert uses(r"\.stripe_done\b") == drivers
        assert uses(r"\bjob\.record_writebacks\(") == drivers
        assert count_defs("record_writebacks") == {"src/repro/core/repair_job.py": 1}

    def test_every_store_says_whether_it_is_persistent(self):
        """``persistent`` is abstract on ``ChunkStore``: a backend answers
        for itself, a decorator with its inner's answer, and a new class
        that says nothing cannot be instantiated — so it cannot silently
        journal chunk names over a store that forgets them."""
        import repro.service.chaos_rig  # noqa: F401 - registers its decorators
        from repro.hdss.store import ChunkStore, ForwardingChunkStore

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert "persistent" in ChunkStore.__abstractmethods__
        in_src = [c for c in subclasses(ChunkStore) if c.__module__.startswith("repro.")]
        assert len(in_src) >= 7
        for cls in in_src:
            assert "persistent" not in cls.__abstractmethods__, cls
            owner = next(k for k in cls.__mro__ if "persistent" in vars(k))
            expected = ForwardingChunkStore if issubclass(cls, ForwardingChunkStore) else cls
            assert owner is expected, f"{cls.__name__} inherits {owner.__name__}'s answer"

    def test_the_two_single_valued_options_are_gone(self):
        for path in src_files():
            assert not re.search(r"\bwrite_back\b", path.read_text()), path
        for path in CLI.glob("*.py"):
            assert "per-disk-reads" not in path.read_text(), path


class TestOneReadClock:
    """A survivor read is priced once, on one serial logical clock that
    the driver owns: ``ReadClock.price`` in the stripe core (``due`` only
    asks whether the next price will fire a fault). ``sim/`` is exempt by
    name — its timing plane is the paper's figures."""

    PRICE = {"src/repro/core/stripe_repair.py:price"}

    def calls_outside_sim(self, pattern):
        hits = set()
        for path in src_files():
            if SRC / "sim" not in path.parents:
                hits |= functions_matching(path, rf"(?<!def ){pattern}\(")
        return hits

    def test_only_the_clock_prices_a_read(self):
        for pattern in (r"\.decide", r"injector\.advance"):
            assert self.calls_outside_sim(pattern) == self.PRICE, pattern
        assert self.calls_outside_sim(r"next_change_time") == self.PRICE | {
            "src/repro/core/stripe_repair.py:due"
        }

    def test_each_driver_owns_one_clock(self):
        assert count_defs("price") == {"src/repro/core/stripe_repair.py": 1}
        assert call_sites("ReadClock") == {"src/repro/service/service.py:__init__"}

    def test_the_second_clock_is_gone(self):
        gone = re.compile(
            r"_model_transfer|_channels\b|modeled_now|_wait_out|_advance_faults"
        )
        for path in src_files():
            assert not gone.search(path.read_text()), path

    def test_the_clock_stays_sans_io(self):
        leaked = io_imports(CORE)
        assert not leaked, f"stripe_repair.py must stay sans-I/O; imports {leaked}"
        assert not re.search(r"\b(monotonic|perf_counter|sleep)\(", CORE.read_text())


LEDGER = SRC / "core" / "slot_ledger.py"


class TestOneSlotLedger:
    """``c`` is counted once where the bytes are real: ``core/slot_ledger.py``
    under the daemon's job body (which ``recover_disk`` runs too)."""

    def test_ledger_is_sans_io(self):
        leaked = io_imports(LEDGER)
        assert not leaked, f"slot_ledger.py must stay sans-I/O; imports {leaked}"
        assert not re.search(r"\b(monotonic|perf_counter|sleep)\(", LEDGER.read_text())

    def test_old_copies_are_gone(self):
        assert not (SRC / "hdss" / "memory.py").exists()
        for path in src_files():
            assert not re.search(r"ChunkMemory|_SlotAllocator", path.read_text()), path

    def test_no_other_class_keeps_a_slot_count(self):
        """``sim/`` is exempt by name: ``sim.engine.SlotResource`` is the
        modeled reference the paper's figures come from (and the unit tests
        hold the ledger to it)."""
        counter = re.compile(
            r"self\.(_free|_?in_use|occupancy|free_slots|peak\w*)\s*[-+]?=(?!=)"
        )
        keeps = {
            str(path.relative_to(ROOT))
            for package in ("core", "service", "hdss")
            for path in (SRC / package).rglob("*.py")
            if counter.search(path.read_text())
        }
        assert keeps == {"src/repro/core/slot_ledger.py"}
        assert counter.search((SRC / "sim" / "engine.py").read_text())

    def test_the_two_drivers_reach_it_the_same_way(self):
        assert call_sites(r"\.try_acquire") == {
            "src/repro/core/slot_ledger.py:acquire",
            "src/repro/service/admission.py:acquire",
        }
        released_in_finally = re.compile(
            r"finally:\n\s+(self\.memory\.|memory\.)release\("
        )
        # The daemon's forced read is a one-shard round: one release site.
        service = SRC / "service" / "service.py"
        assert len(released_in_finally.findall(service.read_text())) == 1
        assert call_sites(r"(self\.)?memory\.acquire") == {
            "src/repro/service/service.py:_repair_stripe"
        }


SERVICE = SRC / "service"
RIG = SERVICE / "chaos_rig.py"
BENCH_OVERLOAD = BENCHMARKS / "bench_overload.py"


class TestOneChaosRig:
    """The scenarios' shared steps exist once: in the rig, the forwarding
    store base, and the open-loop pacer."""

    def test_one_forwarding_getattr(self):
        owners = []
        for path in src_files():
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if (
                        isinstance(fn, ast.FunctionDef)
                        and fn.name == "__getattr__"
                        and "self.inner" in ast.unparse(fn)
                    ):
                        owners.append(f"{path.relative_to(ROOT)}:{cls.name}")
        assert owners == ["src/repro/hdss/store.py:ForwardingChunkStore"]

    def test_forwarding_base_covers_the_whole_interface(self):
        from repro.hdss.store import ChunkStore, ForwardingChunkStore

        interface = {
            name for name, member in vars(ChunkStore).items()
            if callable(member) and not name.startswith("_")
        }
        missing = interface - set(vars(ForwardingChunkStore))
        assert not missing, f"ForwardingChunkStore does not forward {missing}"

    def test_decorators_define_no_pure_forwarder(self):
        """A method of a store decorator either does something or is not
        there: ``return self.inner.<same name>(<same args>)`` alone is the
        base class's job."""
        from repro.hdss.store import FaultyChunkStore
        from repro.service.chaos_rig import CountingStore, PacedStore

        for cls in (FaultyChunkStore, CountingStore, PacedStore):
            for name, member in vars(cls).items():
                if not inspect.isfunction(member) or name == "__init__":
                    continue
                if member.__qualname__ != f"{cls.__name__}.{name}":
                    continue  # re-pointed at a ChunkStore looping default
                fn = ast.parse(textwrap.dedent(inspect.getsource(member))).body[0]
                body = [
                    s for s in fn.body
                    if not (isinstance(s, ast.Expr)
                            and isinstance(s.value, ast.Constant))
                ]
                only_forwards = len(body) == 1 and re.fullmatch(
                    rf"(return )?self\.inner\.{name}\(.*\)", ast.unparse(body[0])
                )
                assert not only_forwards, f"{cls.__name__}.{name} only forwards"

    def test_assembly_and_epilogue_live_only_in_the_rig(self):
        for path in SERVICE.glob("chaos*.py"):
            if path == RIG:
                continue
            text = path.read_text()
            assert "HDSSConfig(" not in text, path
            assert "hdpsr_chaos_runs_total" not in text, path
        for path in (ROOT / "tests" / "test_cluster_failover.py",
                     ROOT / "tests" / "test_overload.py",
                     ROOT / "tests" / "test_service.py",
                     ROOT / "tests" / "test_service_telemetry.py",
                     ROOT / "tests" / "test_client_retry.py",
                     BENCH_OVERLOAD, BENCHMARKS / "bench_scrub.py"):
            assert "HDSSConfig(" not in path.read_text(), path

    def test_one_open_loop_pacer(self):
        """Sleeping until ``started + offset`` is the pacer's business."""
        idiom = r"started \+ (float\()?offset\)? - time\.monotonic\(\)"
        hits = set()
        for path in [*src_files(), BENCH_OVERLOAD, BENCHMARKS / "bench_scrub.py"]:
            hits |= functions_matching(path, idiom)
        assert hits == {"src/repro/service/client.py:pace_open_loop"}

    def test_no_blocking_sleep_in_the_episodes(self):
        hits = set()
        for path in SERVICE.glob("chaos*.py"):
            hits |= functions_matching(path, r"time\.sleep\(")
        assert hits == {"src/repro/service/chaos_rig.py:get"}  # PacedStore.get

    def test_invariants_defined_once(self):
        for name in ("check_byte_identical", "check_no_duplicate_writes",
                     "check_digests_verify", "check_stale_owner_fenced",
                     "check_repair_certified", "check_parity_clean"):
            assert count_defs(name) == {"src/repro/service/chaos_rig.py": 1}

    def test_daemon_does_not_import_its_chaos_harness(self):
        loaded = loaded_repro_modules(
            "import repro.service, repro.cli; repro.cli.build_parser()"
        )
        assert not [m for m in loaded if m.startswith("repro.service.chaos")]


def loaded_repro_modules(statement):
    """The ``repro.*`` modules in ``sys.modules`` after ``statement`` runs
    in a fresh interpreter."""
    probe = (
        f"import sys; {statement}; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    return out.stdout.split()


class TestOneOperatorPlane:
    """What stands between a person (or CI, or a test) and a running daemon
    — find it, ask it one thing, keep asking, run hardened, attach — exists
    once, under the per-command CLI modules."""

    def test_one_definition_each(self):
        for name, home in {
            "write_port_file": "src/repro/service/client.py",
            "wait_for_port_file": "src/repro/service/client.py",
            "_show": "src/repro/commands/clients.py",
            "_run_hardened": "src/repro/commands/paper.py",
            "attach_server": "src/repro/hdss/server.py",
            "build_server": "src/repro/commands/flags.py",
            "add_endpoint_args": "src/repro/commands/flags.py",
            "add_algorithm_arg": "src/repro/commands/flags.py",
        }.items():
            found = count_defs(name)
            found.pop("src/repro/service/chaos_rig.py", None)  # its own build_server
            assert found == {home: 1}, name

    def test_the_cli_is_split_by_command(self):
        """``cli.py`` stays a file (``benchmarks/e2e/run.py`` looks for it)
        but only assembles the parser; the commands are beside it."""
        for path in [SRC / "cli.py", *CLI.glob("*.py")]:
            assert len(path.read_text().splitlines()) <= 500, path
        assert "add_argument(" not in (SRC / "cli.py").read_text()

    def test_port_files_are_written_and_awaited_in_one_place(self):
        for path in src_files():
            assert "write_text(str(self.port))" not in path.read_text(), path
        waiter = re.compile(r"def (_wait_port|_resolve_port|wait_file)\(")
        for path in [*src_files(), *(ROOT / "tests").glob("*.py"),
                     *(ROOT / "tools").glob("*.py")]:
            if path != Path(__file__):
                assert not waiter.search(path.read_text()), path

    def test_one_server_from_args_builder(self):
        builders = set()
        for path in CLI.glob("*.py"):
            builders |= functions_matching(path, r"build_exp_server\(")
        assert builders == {"src/repro/commands/flags.py:build_server"}

    def test_one_shots_use_the_context_manager(self):
        by_hand = re.compile(r"\.connect\([^\n]*\)\n\s*try:")
        for path in CLI.glob("*.py"):
            assert not by_hand.search(path.read_text()), (
                f"{path}: use `async with await ServiceClient.connect(...)`"
            )

    def test_one_refresh_loop_and_one_scheme_list(self):
        loops, schemes = set(), set()
        for path in CLI.glob("*.py"):
            loops |= functions_matching(path, r"while True:")
            schemes |= functions_matching(path, r"list\(ALGORITHMS\) if")
        assert loops == {"src/repro/commands/clients.py:_show"}
        assert schemes == {"src/repro/commands/flags.py:algorithms_of"}

    def test_ci_runs_scripts_not_heredocs(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "python - <<" not in text
        assert len(text.splitlines()) < 200

    def test_building_the_parser_loads_no_service_code(self):
        """``hdpsr serve`` imports ``repro.service`` when dispatched, not
        when its flags are declared — every other command starts without
        the daemon loaded."""
        loaded = loaded_repro_modules("import repro.cli; repro.cli.build_parser()")
        assert not [m for m in loaded if m.startswith("repro.service")]
        library = loaded_repro_modules("import repro")
        # ``repro`` re-exports only what the examples and docs import, so
        # the Observation 1-3 tables (``hdpsr observe``) load with the CLI.
        assert set(loaded) - set(library) == {
            "repro.cli", "repro.commands", "repro.commands.chaos",
            "repro.commands.clients", "repro.commands.flags",
            "repro.commands.paper", "repro.commands.serve",
            "repro.commands.trace", "repro.core.analysis",
        }


SERVICE = SRC / "service"
DOCS = ROOT / "docs"


def metric_literals():
    """Every ``"hdpsr_…"`` string literal under src/."""
    found = set()
    for path in src_files():
        found |= set(re.findall(r'"(hdpsr_[a-z0-9_]+)"', path.read_text()))
    return found


def metrics_in_doc_tables():
    """Every metric a table row of the three metric docs names in full."""
    named = set()
    for doc in ("service.md", "observability.md", "robustness.md"):
        for line in (DOCS / doc).read_text().splitlines():
            if line.startswith("|"):
                named |= set(re.findall(r"`(hdpsr_[a-z0-9_]+)[`{]", line))
    return named


def private_reaches(path):
    """``line: expr`` for every ``<x>._attr`` in ``path`` where ``<x>`` is
    not ``self`` / ``cls`` (dunders are everyone's)."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and ast.unparse(node.value) not in ("self", "cls")
    ]


def spans_forked_on_enabled(path):
    """Lines of ``if <tracer>.enabled:`` blocks that hold a ``with
    <tracer>.span(...)`` — a span body written twice."""
    forked = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith(".enabled"):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.With, ast.AsyncWith)) and any(
                    re.search(r"\.span\(", ast.unparse(item.context_expr))
                    for item in inner.items
                ):
                    forked.append(node.lineno)
    return forked


class TestOneSelfDescription:
    """Each plane reports its live state once; ``stats``, ``top`` and every
    gauge derive from those snapshots at scrape time, in one exporter."""

    def test_every_series_is_in_a_doc_table_and_every_row_is_a_series(self):
        code, docs = metric_literals(), metrics_in_doc_tables()
        assert not code - docs, "exported, but named in no metric table"
        assert not docs - code, "in a metric table, but not in src/"

    def test_gauges_are_set_by_the_one_exporter(self):
        sites = {p.name: p.read_text().count(".gauge(") for p in SERVICE.glob("*.py")}
        assert {name: n for name, n in sites.items() if n} == {
            "telemetry.py": 1, "client.py": 1,
        }
        assert not count_defs(r"_export\w*")

    def test_metrics_are_read_through_the_registry_s_public_face(self):
        for path in src_files():
            if path.parent != SRC / "obs":
                assert "._series(" not in path.read_text(), path

    def test_every_span_body_is_written_once(self):
        """Guards around ``complete()`` / ``instant()`` in hot loops stay;
        a ``with tracer.span`` needs none — the inert span is a no-op."""
        for path in src_files():
            assert not spans_forked_on_enabled(path), path

    def test_no_plane_reaches_into_another_s_privates(self):
        for path in SERVICE.glob("*.py"):
            assert not private_reaches(path), path


def store_puts(node):
    """Every ``<…>store.put`` attribute under ``node`` (a call's target or
    an argument handed on)."""
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr == "put"
        and ast.unparse(n.value).endswith("store")
    ]


def function_named(tree, name):
    (fn,) = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name
    ]
    return fn


def repair_stripe_of(path):
    return function_named(ast.parse(path.read_text()), "_repair_stripe")


class TestOneWritePath:
    """A rebuilt chunk has one write path: its stripe appends the
    ``stripe_done`` record, then puts its chunks, in one call it awaits off
    the event loop (``_record_then_put``). No queue, no batch, no knob."""

    def test_the_write_behind_layer_is_gone(self):
        assert not (SERVICE / "sharding.py").exists()
        for path in src_files():
            text = path.read_text()
            for word in ("AsyncShardWriter", "put_many", "writer_backlog",
                         "chunks_enqueued", "service/sharding.py",
                         "service.sharding"):
                assert word not in text, f"{path}: {word}"

    def test_service_config_keeps_its_six_fields(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert [f.name for f in fields(ServiceConfig)] == [
            "max_concurrent_stripes", "per_disk_reads", "policy",
            "journal_root", "durable_journal", "overload",
        ]

    def test_every_service_put_is_awaited_in_a_worker_thread(self):
        """A replayed chunk's put is handed to ``asyncio.to_thread`` itself;
        a rebuilt chunk's is made in ``_record_then_put``, which is named
        nowhere but as the body of a ``to_thread`` call."""
        tree = ast.parse((SERVICE / "service.py").read_text())
        threaded = {
            id(call.args[0]) for call in ast.walk(tree)
            if isinstance(call, ast.Call) and call.args
            and ast.unparse(call.func) == "asyncio.to_thread"
        }
        puts = store_puts(tree)
        assert len(puts) == 2  # replay, rebuilt chunk
        in_body = {id(put) for put in store_puts(function_named(tree, "_record_then_put"))}
        assert len(in_body) == 1
        assert all(id(put) in threaded | in_body for put in puts)
        bodies = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "_record_then_put"
        ]
        assert bodies and all(id(n) in threaded for n in bodies)

    def test_both_drivers_record_before_they_put(self):
        """A replayed stripe's re-put already has its record; every other
        put in ``_repair_stripe`` is of a rebuilt chunk and comes after, in
        ``_record_then_put``, which runs the record before its puts."""
        def replays(block):
            return isinstance(block, ast.If) and any(
                isinstance(n, ast.Attribute) and n.attr == "replay_puts"
                for stmt in block.body for n in ast.walk(stmt)
            )

        for path in (SERVICE / "service.py",):
            fn = repair_stripe_of(path)
            records = [
                n.lineno for n in ast.walk(fn)
                if isinstance(n, ast.Attribute) and n.attr == "stripe_done"
            ]
            replayed = {
                id(put) for block in ast.walk(fn) if replays(block)
                for stmt in block.body for put in store_puts(stmt)
            }
            puts = [n.lineno for n in store_puts(fn) if id(n) not in replayed]
            puts += [
                n.lineno for n in ast.walk(fn)
                if isinstance(n, ast.Name) and n.id == "_record_then_put"
            ]
            assert records and puts, path
            assert max(records) < min(puts), f"{path}: a put precedes its record"
        body = function_named(ast.parse((SERVICE / "service.py").read_text()),
                              "_record_then_put")
        recorded = [
            n.lineno for n in ast.walk(body)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "record"
        ]
        (put,) = store_puts(body)
        assert recorded and max(recorded) < put.lineno, "a put precedes its record"


class TestOneWayToRebuildAChunk:
    """Only a stripe rebuilds a chunk. Its targets are whatever it has lost
    when it starts or re-plans — a failed disk's chunk or a quarantined
    one — and a read-repair is that stripe run as a one-stripe job. A
    degraded front-door read decodes but never writes."""

    def test_one_decode_of_a_lone_chunk_and_it_serves_reads(self):
        assert call_sites("_decode_chunk") == {
            "src/repro/service/service.py:read_chunk"
        }

    def test_the_service_puts_only_from_the_stripe_task(self):
        tree = ast.parse((SERVICE / "service.py").read_text())
        owners = {
            func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and store_puts(func)
        }
        assert owners == {"_repair_stripe", "_record_then_put"}
        assert call_sites("_record_then_put") == set()  # only to_thread runs it
        assert functions_matching(SERVICE / "service.py", r"\b_record_then_put\b") == {
            "src/repro/service/service.py:_repair_stripe",
            "src/repro/service/service.py:_record_then_put",  # its def
        }

    def test_one_queue_coordinates_the_stripes(self):
        """Every stripe pass, a disk job's or a read-repair's, goes through
        the service's one queue and pool: no claim held for a job's life,
        no read-repair hold, no piggyback map, no semaphore per job."""
        gone = ("_claimed", "_read_repairs", "_repair_futures", "_unheld",
                "_claim_stripes", "_release_stripes", "_stripe_bounded")
        for path in src_files():
            text = path.read_text()
            for name in gone:
                assert not re.search(rf"\b{name}\b", text), f"{path}: {name}"
        service = (SERVICE / "service.py").read_text()
        (run_job,) = [
            fn for fn in ast.walk(ast.parse(service))
            if isinstance(fn, ast.AsyncFunctionDef) and fn.name == "run_job"
        ]
        assert "Semaphore" not in ast.unparse(run_job)
        assert "Semaphore" not in service

    def test_the_old_paths_are_gone(self):
        for name in ("_sync_and_verify", "_auto_repair_chunk", "targets"):
            assert count_defs(name) == {}, name  # targets: RepairJob.targets
        for path in src_files():
            text = path.read_text()
            assert not re.search(
                r"\b(_sync_and_verify|_auto_repair_chunk|job\.targets)\b", text
            ), path


class TestOneBodyFrame:
    """Protocol v6: a chunk body crosses the wire raw after its reply's
    JSON header. The daemon writes every reply through one framing
    function and the client reads every reply back through one reader;
    base64 is left to the benchmark's layer table."""

    PROTOCOL = "src/repro/service/protocol.py"

    def test_no_base64_body_remains(self):
        for path in src_files():
            assert "data_b64" not in path.read_text(), path
        assert call_sites(r"(?:un)?pack_bytes") == set()
        assert count_defs(r"(?:un)?pack_bytes") == {self.PROTOCOL: 2}

    def test_every_reply_goes_through_the_one_frame(self):
        assert call_sites(r"(?:protocol\.)?frame_reply") == {
            "src/repro/service/netserver.py:_handle"
        }
        assert call_sites(r"(?:protocol\.)?read_reply") == {
            "src/repro/service/client.py:call"
        }
        netserver = SRC / "service" / "netserver.py"
        assert functions_matching(netserver, r"\bencode_message\(") == set()
        assert functions_matching(netserver, r"\.write(lines)?\(") == {
            "src/repro/service/netserver.py:_handle"
        }
        named = {
            f"{path.relative_to(ROOT)}:{func.name}"
            for path in src_files()
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(
                isinstance(node, ast.Constant) and node.value == "nbytes"
                for node in ast.walk(func)
            )
        }
        assert named == {
            f"{self.PROTOCOL}:frame_reply", f"{self.PROTOCOL}:read_reply"
        }


E2E = BENCHMARKS / "e2e"


def load_traced_serve():
    """``benchmarks/e2e/traced_serve.py`` as a module, nothing patched:
    importing it only defines :data:`HOOKS`; ``install()`` is not called."""
    spec = importlib.util.spec_from_file_location(
        "traced_serve", E2E / "traced_serve.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOneWayToStartAStripe:
    """A stripe is replayed from its ``stripe_done`` record or starts fresh
    from its plan. The v1 mid-stripe resume is gone from every layer; the
    two functions it leaves behind are the benchmark's alone."""

    DRIVERS = {"src/repro/service/service.py:_repair_stripe"}

    def test_the_mid_stripe_resume_is_gone(self):
        from repro.journal.journal import RepairState

        assert {"inflight", "phases"}.isdisjoint(f.name for f in fields(RepairState))
        for path in src_files():
            text = path.read_text()
            for word in ("from_state", "def restore", "RESTORE",
                         "RepairState.inflight", ".dispatch("):
                assert word not in text, f"{path}: {word}"

    def test_one_way_to_build_and_one_resume_decision(self):
        assert call_sites(r"StripeRepair\.\w+") == call_sites(r"StripeRepair\.fresh")
        assert call_sites(r"StripeRepair\.fresh") == self.DRIVERS
        assert call_sites(r"\.replayable") == self.DRIVERS

    def test_the_benchmarks_bindings_are_defined_once_and_never_called(self):
        assert count_defs("to_state") == {"src/repro/ec/partial.py": 1}
        assert count_defs("round_commit") == {"src/repro/journal/journal.py": 1}
        assert call_sites(r"\.to_state") == set()
        assert call_sites(r"\.round_commit") == set()
        outside = sorted(BENCHMARKS.rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))
        for name, binders in (("to_state", {"layers.py"}),
                              ("round_commit", {"layers.py", "traced_serve.py"})):
            found = {
                str(p.relative_to(ROOT)) for p in outside
                if re.search(rf"\b{name}\b", p.read_text())
            }
            assert found == {f"benchmarks/e2e/{b}" for b in binders}, name


class TestBenchmarkBindings:
    """The e2e benchmark's trace hooks name ``src/`` functions as strings.
    A hook whose target is gone is only *counted* there
    (``trace.missing_hooks``) and its per-layer rows read 0, so a refactor
    that renames one fails here instead."""

    def test_every_trace_hook_resolves_but_the_known_one(self):
        unresolved = set()
        for module_name, path, _span, _nbytes in load_traced_serve().HOOKS:
            try:
                owner = importlib.import_module(module_name)
                for part in path.split("."):
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                unresolved.add(f"{module_name}:{path}")
        # put_many went with the write-behind layer, and the store stopped
        # importing crc32c with the sidecar reader (no chunk has a sidecar,
        # so the hook counted 0 calls); the benchmark counts both missing.
        assert unresolved == {
            "repro.hdss.store:FileChunkStore.put_many",
            "repro.hdss.store:crc32c",
        }


def _defs(path):
    """``(qualified name, bare name, first line, last line)`` of every
    top-level function and class in ``path`` and every public method of its
    classes; the first line is the first decorator's."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [
                (f"{node.name}.{sub.name}", sub) for sub in node.body
                if isinstance(sub, functions) and not sub.name.startswith("_")
            ]
        for qual, member in members:
            first = min([d.lineno for d in member.decorator_list] + [member.lineno])
            out.append((f"{module}:{qual}", member.name, first, member.end_lineno))
    return out


def _name_sites():
    """Every use of a name outside ``tests/``, as ``name -> [(path, line)]``:
    loads of a name or an attribute in ``src/``, ``benchmarks/``,
    ``examples/`` and ``tools/`` (an import is not a use, so a package's
    re-exports count for nothing; strings and comments are not code), every
    word of ``ci.yml``, and the e2e benchmark's trace-hook targets."""
    sites = {}
    paths = src_files() + [
        p for d in ("benchmarks", "examples", "tools") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                sites.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                sites.setdefault(node.attr, []).append((path, node.end_lineno))
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for word in re.findall(r"[A-Za-z_]\w*", ci):
        sites.setdefault(word, []).append((None, 0))
    for _module, path, _span, _nbytes in load_traced_serve().HOOKS:
        for part in path.split("."):
            sites.setdefault(part, []).append((None, 0))
    return sites


#: A reason that only defers: the thing stays until some later change.
DEFERRED = re.compile(r"\blater\b|\bown change\b|\bdeferred\b|\bROADMAP\b", re.I)


class TestNothingOnlyTestsReach:
    """Every function, class and public method in ``src/repro`` is named by
    code outside ``tests/`` — outside its own body, and by code that is
    itself reached — or is listed below with the reason it stays. A name
    only its own unit tests call is deleted with those tests. Names can
    clash (a method called ``load`` is "used" by every ``json.load``), so
    this is a floor: a run of every entry point under a call recorder is
    what found the clashing ones."""

    ACCESSOR = "read-only accessor tests use to check live state"
    ALLOWED = {
        # `hdpsr chaos` looks each scenario's runner up by name
        # (commands/chaos.py, _CHAOS_SCENARIOS).
        "repro.service.chaos:run_chaos": "bound by name in commands/chaos.py",
        "repro.service.chaos_bitrot:run_bitrot_chaos": "bound by name in commands/chaos.py",
        "repro.service.chaos_overload:run_overload_chaos": "bound by name in commands/chaos.py",
        # Reference implementations live code is checked against.
        "repro.sim.metrics:TransferReport.disk_blame":
            "the simulator's blame, obs.analysis's blame is compared against it",
        "repro.gf.arithmetic:gf_add": "scalar GF(2^8) op, oracle of the field tests",
        "repro.gf.arithmetic:gf_sub": "scalar GF(2^8) op, oracle of the field tests",
        "repro.gf.arithmetic:gf_div": "scalar GF(2^8) op, oracle of gf_inv and the kernels",
        "repro.gf.tables:exp_table": "read-only view of the table the kernels are built from",
        "repro.gf.tables:log_table": "read-only view of the table the kernels are built from",
        "repro.obs.exporters:validate_chrome_trace":
            "checks an exported trace against Chrome's trace_event schema",
        "repro.obs.metrics:Gauge.dec": "the gauge's half of the Prometheus set/inc/dec interface",
        # Read-only accessors.
        "repro.ec.partial:PartialDecoder.memory_chunks_held": ACCESSOR,
        "repro.ec.partial:PartialDecoder.rounds_fed": ACCESSOR,
        "repro.ec.stripe:Stripe.chunk_ids": ACCESSOR,
        "repro.ec.stripe:Stripe.shard_on_disk": ACCESSOR,
        "repro.faults.injector:FaultInjector.exhausted": ACCESSOR,
        "repro.faults.service:ServiceFaultInjector.exhausted": ACCESSOR,
        "repro.faults.service:WireVerdict.disruptive": ACCESSOR,
        "repro.hdss.server:ScrubReport.stripes_checked": ACCESSOR,
        "repro.hdss.store:InMemoryChunkStore.total_chunks": ACCESSOR,
        "repro.hdss.store:FaultyChunkStore.bad_chunks": ACCESSOR,
        "repro.obs.tracer:RecordingTracer.instants": ACCESSOR,
        "repro.sim.metrics:TransferReport.max_rounds_per_stripe": ACCESSOR,
        "repro.workloads.generator:TransferTimeWorkload.ros_actual": ACCESSOR,
    }

    @staticmethod
    def _entry_of(qual):
        """The allowlist key covering ``qual``, or None."""
        module, _, name = qual.partition(":")
        for key in (qual, f"{module}:{name.split('.')[0]}", module):
            if key in TestNothingOnlyTestsReach.ALLOWED:
                return key
        return None

    @classmethod
    def _audit(cls):
        """``(unreached, callers)``: the definitions nothing reaches when the
        allowlisted ones count as reached, and per allowlist entry the sites
        in reached, unlisted code that name what it covers (a module entry
        covers its whole file)."""
        sites = _name_sites()
        defs = [(path, *d) for path in src_files() for d in _defs(path)]
        listed = {}  # allowlist key -> [(name, its own span)]
        for path, qual, name, first, last in defs:
            # what an entry answers for: the named definition, or every
            # top-level one of a listed module (whose own span is the file)
            module, _, local = qual.partition(":")
            if qual in cls.ALLOWED:
                listed.setdefault(qual, []).append((name, (path, first, last)))
            elif module in cls.ALLOWED and "." not in local:
                listed.setdefault(module, []).append((name, (path, 1, 10**9)))
        dead = []  # spans of the definitions found unreached

        def inside(spans, path, line):
            return any(p == path and a <= line <= b for p, a, b in spans)

        def reaches(site, own, skip=()):
            path, line = site
            return path is None or not inside([own, *dead, *skip], path, line)

        changed = True
        while changed:
            changed = False
            for path, qual, name, first, last in defs:
                span = (path, first, last)
                if cls._entry_of(qual) or span in dead:
                    continue
                if not any(reaches(site, span) for site in sites.get(name, ())):
                    dead.append(span)
                    changed = True
        unreached = sorted(
            qual for path, qual, _n, first, last in defs if (path, first, last) in dead
        )
        listed_spans = [own for members in listed.values() for _n, own in members]
        callers = {
            key: sorted(
                f"{site[0].relative_to(ROOT)}:{site[1]}" if site[0] else "ci.yml or a trace hook"
                for name, own in members for site in sites.get(name, ())
                if reaches(site, own, listed_spans)
            )
            for key, members in listed.items()
        }
        return unreached, callers

    def test_every_unreached_name_is_allowlisted(self):
        unreached, _callers = self._audit()
        assert unreached == [], (
            "only tests reach these; delete them with their tests, or list "
            f"them in ALLOWED with the reason they stay: {unreached}"
        )

    def test_nothing_is_deferred(self):
        """An entry stays for a reason that holds now. A name kept only until
        a later change deletes it is deleted in this one."""
        deferred = {key: why for key, why in self.ALLOWED.items() if DEFERRED.search(why)}
        assert deferred == {}, "kept for a later change; delete it with its tests"

    def test_no_allowlist_entry_has_gained_a_caller(self):
        _unreached, callers = self._audit()
        assert sorted(set(self.ALLOWED) - set(callers)) == [], "names nothing in src/"
        stale = {key: found for key, found in callers.items() if found}
        assert stale == {}, "reached from code outside tests; drop from ALLOWED"


def _settings_fields():
    """``Class.field`` for every field with a default of every ``*Options``,
    ``*Config`` and ``*Policy`` dataclass in ``src/``. The chaos episode
    configs are the test plane (``hdpsr chaos`` builds them from a dict)
    and are left out."""
    out = set()
    for path in src_files():
        for node in ast.parse(path.read_text()).body:
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Options", "Config", "Policy"))
                and not node.name.endswith("ChaosConfig")
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    out.add(f"{node.name}.{stmt.target.id}")
    return out


def _keywords_set():
    """``Class.keyword`` for every keyword argument of a call to a class by
    name (``C(...)`` or ``mod.C(...)``) in ``src/``, ``benchmarks/``,
    ``examples/`` and ``tools/``."""
    paths = src_files() + [
        p for d in ("benchmarks", "examples", "tools") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                found |= {f"{name}.{kw.arg}" for kw in node.keywords if kw.arg}
    return found


class TestNoFieldOnlyTestsSet:
    """A settings field no code outside ``tests/`` sets is a knob only
    tests turn: the branch behind it is dead on every entry point, and
    :class:`TestNothingOnlyTestsReach` cannot see it (the class is reached,
    the field's default is all it ever holds). Each such field is deleted
    with its branch, or listed here with the reason it stays."""

    ALLOWED = {
        "ExecutionOptions.disk_contention":
            "the per-disk contention model, finding 1's reference for reconciling "
            "the simulator with the wall clock; tests/test_disk_contention.py pins it",
        "ClusterConfig.endpoint":
            "ServiceDaemon.start fills it in after bind, when the port is known",
        "HDSSConfig.matrix_style":
            "every journal fingerprint carries it, tests/data/parent_journal's "
            "included, so a resume refuses a server built with another matrix",
    }

    def test_every_unset_field_is_allowlisted(self):
        unset = sorted(_settings_fields() - _keywords_set() - set(self.ALLOWED))
        assert unset == [], (
            "only tests set these fields; delete each with its branch, or list "
            f"it in ALLOWED with the reason it stays: {unset}"
        )

    def test_allowlist_is_current(self):
        assert sorted(set(self.ALLOWED) - _settings_fields()) == [], "names no field with a default"
        assert sorted(set(self.ALLOWED) & _keywords_set()) == [], (
            "set by code outside tests; drop from ALLOWED"
        )

    def test_nothing_is_deferred(self):
        deferred = {key: why for key, why in self.ALLOWED.items() if DEFERRED.search(why)}
        assert deferred == {}, "kept for a later change; delete it with its branch"
