"""Smoke tests: each script in demos/ runs in-process and prints its key line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import helpers

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


def test_unitary_approximation_demo(capsys) -> None:
    _load("unitary_approximation").main()
    assert "distance from the identity channel: 1.369242" in _lines(capsys)


def test_damping_tradeoff_demo(capsys) -> None:
    _load("damping_tradeoff").main()
    table = [line.split() for line in _lines(capsys)]
    rows = [row for row in table if len(row) == 5 and row[0] != "gamma"]
    assert len(rows) == 11
    # the distance sits inside the closed-form bracket on every row
    for gamma, lower, distance, upper, _ in rows:
        assert float(lower) <= float(distance) <= float(upper), gamma


def test_two_copy_advantage_demo(monkeypatch, capsys) -> None:
    demo = _load("two_copy_advantage")
    monkeypatch.setattr(demo, "multi_copy_approx", lambda *args: helpers.canned_multi_copy())
    demo.main()
    assert "correlation buys 0.1250 in diamond distance; note the optimal" in _lines(capsys)
