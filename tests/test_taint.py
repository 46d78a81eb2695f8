"""Tests for the Byzantine taint analysis (``repro taint``).

Fixture modules model the repo's handler idiom: a manager class
registers ``self._on_*`` methods for message types, the analyzer taints
each handler's message parameter, and flows into state/storage/send
sinks must be dominated by a sanitizer (verify/digest/quorum check).
"""

import json
from collections import Counter
from pathlib import Path

import repro
from repro.analysis.taint import (analyze_corpus, extract_handlers,
                                  handler_graph_dot, run_taint)
from repro.analysis.lint.engine import LintEngine, load_source_file
from repro.cli import main

SRC_REPRO = Path(repro.__file__).parent

HEADER = (
    "class Ping:\n"
    "    pass\n"
    "\n"
    "\n"
)


def taint_snippet(tmp_path, code, relpath="pbft/mod.py"):
    """Write a fixture module and run the taint rule set over it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(HEADER + code)
    return run_taint([tmp_path])


def analyze_snippet(tmp_path, code, relpath="pbft/mod.py"):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(HEADER + code)
    return analyze_corpus([load_source_file(target)])


# ----------------------------------------------------------------------
# tainted flows
# ----------------------------------------------------------------------
def test_unsanitized_state_write_is_flagged(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.slots[msg.sequence] = msg.value\n"
    ))
    # Two findings on the one line: the tainted value adopted into state
    # and the tainted subscript key (unbounded map growth).
    assert [f.rule for f in result.findings] == ["taint-flow", "taint-flow"]
    assert any("unbounded map growth" in f.message
               for f in result.findings)
    assert all("Ping -> Manager._on_ping" in f.message
               for f in result.findings)


def test_unsanitized_storage_sink_is_flagged(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.store.put(msg.key, msg.value)\n"
    ))
    assert [f.rule for f in result.findings] == ["taint-flow"]
    assert result.exit_code == 1


def test_flow_through_helper_method_is_flagged(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self._adopt(msg.value)\n"
        "    def _adopt(self, value):\n"
        "        self.state[value] = True\n"
    ))
    assert [f.rule for f in result.findings] == ["taint-flow"]
    assert "[via Ping -> Manager._on_ping]" in result.findings[0].message


# ----------------------------------------------------------------------
# sanitized flows
# ----------------------------------------------------------------------
def test_verify_guard_declassifies(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        if not self.host.keys.verify(sender, msg):\n"
        "            return\n"
        "        self.slots[msg.sequence] = msg.value\n"
    ))
    assert result.findings == []
    assert result.exit_code == 0


def test_digest_equality_guard_declassifies(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        if digest(msg.records) != msg.records_digest:\n"
        "            return\n"
        "        self.store.put(msg.key, msg.records)\n"
    ))
    assert result.findings == []


def test_untainted_local_state_is_not_flagged(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.counter = self.counter + 1\n"
    ))
    assert result.findings == []


# ----------------------------------------------------------------------
# suppressed flows
# ----------------------------------------------------------------------
def test_suppression_with_justification_is_counted(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.votes.add(msg.value)"
        "  # lint: allow[taint-flow] vote aggregation binds at quorum\n"
    ))
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["taint-flow"]
    assert result.unjustified == []
    assert result.suppressed_counts() == {"taint-flow": 1}


def test_suppression_without_justification_gates(tmp_path):
    result = taint_snippet(tmp_path, (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.votes.add(msg.value)"
        "  # lint: allow[taint-flow]\n"
    ))
    assert result.findings == []
    assert [f.rule for f in result.unjustified] == ["taint-flow"]


# ----------------------------------------------------------------------
# handler graph
# ----------------------------------------------------------------------
def test_handler_graph_lists_roots_and_call_edges(tmp_path):
    target = tmp_path / "pbft" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(HEADER + (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self._note(msg.value)\n"
        "    def _note(self, value):\n"
        "        print(value)\n"
    ))
    analysis = analyze_corpus([load_source_file(target)])
    assert [(h.message, h.qualname) for h in analysis.handlers] == \
        [("Ping", "Manager._on_ping")]
    assert ("Manager._on_ping", "Manager._note") in analysis.call_edges
    dot = handler_graph_dot([tmp_path])
    assert '"Ping" -> "Manager._on_ping"' in dot
    assert '"Manager._on_ping" -> "Manager._note"' in dot


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_json_and_dot(tmp_path, capsys):
    target = tmp_path / "pbft" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(HEADER + (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.slots[msg.sequence] = msg.value\n"
    ))
    dot_path = tmp_path / "graph.dot"
    code = main(["taint", str(tmp_path), "--format", "json",
                 "--dot", str(dot_path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "repro-taint"
    assert report["counts"] == {"taint-flow": 2}
    assert dot_path.read_text().startswith("digraph handlers {")


def test_cli_unjustified_suppression_exits_nonzero(tmp_path, capsys):
    target = tmp_path / "pbft" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(HEADER + (
        "class Manager:\n"
        "    def register(self):\n"
        "        self.host.register_handler(Ping, self._on_ping)\n"
        "    def _on_ping(self, sender, msg, envelope):\n"
        "        self.votes.add(msg.value)"
        "  # lint: allow[taint-flow]\n"
    ))
    code = main(["taint", str(tmp_path)])
    assert code == 1
    assert "no justification" in capsys.readouterr().out


# ----------------------------------------------------------------------
# self-check: the shipped tree is taint-clean and fully justified
# ----------------------------------------------------------------------
def test_src_repro_taint_clean_and_justified():
    result = run_taint([SRC_REPRO])
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)
    assert result.unjustified == [], "\n".join(
        f.render() for f in result.unjustified)
    # Every suppression in the tree is a triaged taint-flow false
    # positive; a change in this count means a new flow was suppressed
    # (justify it here too) or an old one was fixed (update the count).
    assert result.suppressed_counts() == {"taint-flow": 15}


def test_src_repro_root_census():
    """The trust-boundary census beside the suppressions: roots are found
    *syntactically* at ``register_handler(Cls, self._m)`` /
    ``register_kind(prefix, validator=self._m)`` sites, so registering
    handlers from a table or a loop would silently drop them from the
    analysis. A new handler or validator raises the count (update it);
    a count that falls means a registration the analysis can no longer
    see."""
    sources = [load_source_file(path)
               for path in LintEngine.collect([SRC_REPRO])]
    census = Counter(root.kind for root in extract_handlers(sources))
    assert census == {"handler": 38, "validator": 10}


def test_cli_self_check_exits_zero(capsys):
    assert main(["taint", str(SRC_REPRO)]) == 0
    assert "clean" in capsys.readouterr().out
