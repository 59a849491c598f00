"""Unit tests for the table emitters."""

from repro.experiments.tables import main, table1, table3, table4


def test_table1_contents():
    text = table1()
    for app in ("grep", "stress1", "stress2", "wordcount", "pi"):
        assert app in text
    assert "inf" in text


def test_table3_contents():
    text = table3()
    assert "c1.medium" in text
    assert "0.17-0.23" in text


def test_table4_totals_row():
    text = table4()
    assert "1608" in text
    assert "100" in text


def test_main_prints_all(capsys):
    main()
    out = capsys.readouterr().out
    assert "Table I" in out and "Table III" in out and "Table IV" in out


def test_main_selective(capsys):
    main(which=["table1"])
    out = capsys.readouterr().out
    assert "Table I" in out and "Table III" not in out
