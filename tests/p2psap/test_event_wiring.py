"""Every event a handler is bound to in ``src/`` is raised in ``src/``.

A handler bound to an event nothing raises is code no run executes, and
it reads as a path the stack takes (a duplicate-ACK handler on a
transport that ACKs every segment by its own number is one).  The scan
is static: a bind is ``bind("X", ...)``; a raise is ``compiled["X"]``,
``raise_event("X", ...)``, or ``compiled[self.attr]`` where the module
assigns ``self.attr`` only string literals.

The other direction stays allowed: an event raised in ``src/`` and bound
only by a test probe (``SegmentAbandoned``) costs a no-op call.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_compiled(node):
    return (isinstance(node, ast.Name) and node.id == "compiled") or (
        isinstance(node, ast.Attribute) and node.attr == "compiled")


def scan(root=SRC):
    """``(bound, raised)``: event name -> the ``file:line`` sites."""
    bound, raised = {}, {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = str(path.relative_to(root.parent))
        indirect = set()  # attributes a compiled[...] index reads
        strings_of = {}  # attribute -> the string literals assigned to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args:
                func, name = node.func, _literal(node.args[0])
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if name is not None and attr == "bind":
                    bound.setdefault(name, []).append(f"{where}:{node.lineno}")
                elif name is not None and attr == "raise_event":
                    raised.setdefault(name, []).append(f"{where}:{node.lineno}")
            elif isinstance(node, ast.Subscript) and _is_compiled(node.value):
                name = _literal(node.slice)
                if name is not None:
                    raised.setdefault(name, []).append(f"{where}:{node.lineno}")
                elif isinstance(node.slice, ast.Attribute):
                    indirect.add(node.slice.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        strings_of.setdefault(target.attr, set()).update(
                            n.value for n in ast.walk(node.value)
                            if _literal(n) is not None)
        for attr in indirect:
            for name in strings_of.get(attr, ()):
                raised.setdefault(name, []).append(f"{where}:{attr}")
    return bound, raised


def test_every_event_bound_in_src_is_raised_in_src():
    bound, raised = scan()
    unraised = {name: sites for name, sites in bound.items()
                if name not in raised}
    assert not unraised, f"bound, never raised: {unraised}"


def test_the_scan_sees_the_data_channel_wiring(tmp_path):
    """The scan is not vacuous: it finds the stack's events on both
    sides, the receive entry raised through ``compiled[self._rx_entry]``
    included, and it flags a bind nothing raises."""
    bound, raised = scan()
    for name in ("TxSegment", "SendControl", "FromAbove", "FromBelow",
                 "AckReceived", "SegmentTimeout", "RetransmitCheck",
                 "AppAckTimeout", "RxData", "RxDeliver"):
        assert name in bound and name in raised, name
    assert len(bound) >= 15
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def on_init(self):\n"
        "    self.bind('Raised', f)\n"
        "    self.bind('Orphan', g)\n"
        "    self.bus.compiled['Raised']()\n")
    bound, raised = scan(pkg)
    assert set(bound) == {"Raised", "Orphan"} and set(raised) == {"Raised"}


def test_an_event_raised_but_bound_only_by_a_probe_is_allowed():
    bound, raised = scan()
    assert "SegmentAbandoned" in raised and "SegmentAbandoned" not in bound
