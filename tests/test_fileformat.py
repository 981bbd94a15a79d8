"""Text format: parse/serialize round trips and line-numbered rejection."""

from fractions import Fraction

import pytest

from leibnizalg import catalog
from leibnizalg.algebra import BilinearTensor, StructureTensor
from leibnizalg.fileformat import (
    FileFormatError,
    parse_algebra,
    parse_bilinear,
    serialize_algebra,
    serialize_bilinear,
)


def test_round_trip_all_catalog_algebras():
    for name, builder in catalog.BUILDERS.items():
        t = builder(4) if name in ("abelian", "example-solvable") else builder()
        assert parse_algebra(serialize_algebra(t)) == t, name


def test_round_trip_preserves_fractions():
    t = StructureTensor(
        2, {(0, 1): {0: Fraction(2, 3), 1: Fraction(-5, 7)}})
    text = serialize_algebra(t)
    assert "2/3" in text and "-5/7" in text
    assert parse_algebra(text) == t


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a two-dimensional algebra
    dim 2

    bracket 1 2 = 2:1   # [e1,e2] = e2
    """
    t = parse_algebra(text)
    assert t.bracket_basis(0, 1) == (0, 1)
    assert t.bracket_basis(1, 0) == (0, 0)


def test_right_orientation_is_normalized_on_parse():
    left = parse_algebra("dim 3\nbracket 1 2 = 3:1\n")
    flipped = parse_algebra("dim 3\norientation right\nbracket 2 1 = 3:1\n")
    assert flipped == left


def test_right_orientation_round_trips_the_solvable_example():
    # The solvable family is specified by a right-convention table; feeding
    # that table back through the parser must land on the same normalized
    # tensor the catalog builds.
    t = catalog.example_solvable(4)
    lines = ["dim 6", "orientation right"]
    for i in range(6):
        for j in range(6):
            v = t.bracket_basis(j, i)  # opposite table
            terms = " ".join(f"{k + 1}:{v[k]}" for k in range(6) if v[k])
            if terms:
                lines.append(f"bracket {i + 1} {j + 1} = {terms}")
    parsed = parse_algebra("\n".join(lines))
    assert parsed.c == t.c


def test_labels_survive_the_round_trip():
    t = catalog.sl2()
    text = serialize_algebra(t)
    assert "labels h e f" in text
    assert parse_algebra(text).labels == ("h", "e", "f")


def test_bilinear_round_trip():
    t = catalog.example_affine_two()
    b = BilinearTensor(t.c)
    assert parse_bilinear(serialize_bilinear(b)) == b


def test_bilinear_rejects_orientation():
    with pytest.raises(FileFormatError, match="no orientation"):
        parse_bilinear("dim 2\norientation right\nvalue 1 1 = 2:1\n")


def test_zero_bilinear_serializes_to_just_the_header():
    assert serialize_bilinear(BilinearTensor.zero(3)) == "dim 3\n"


@pytest.mark.parametrize("text, lineno, needle", [
    ("bracket 1 1 = 1:1", 1, "dim must come before"),
    ("dim 2\ndim 3", 2, "repeated dim"),
    ("dim two", 1, "not an integer"),
    ("dim -1", 1, "nonnegative"),
    ("dim 2\nlabels a", 2, "expected 2 labels"),
    ("dim 2\nlabels a b\nlabels c d", 3, "repeated labels"),
    ("dim 2\norientation up", 2, "orientation left|right"),
    ("dim 2\nfrobnicate 1", 2, "unknown directive"),
    ("dim 2\nbracket 1 2 = 1:1\nbracket 1 2 = 2:1", 3, "duplicate"),
    ("dim 2\nbracket 1 3 = 1:1", 2, "out of range"),
    ("dim 2\nbracket 0 1 = 1:1", 2, "out of range"),
    ("dim 2\nbracket x 1 = 1:1", 2, "not an integer"),
    ("dim 2\nbracket 1 = 1:1", 2, "two indices"),
    ("dim 2\nbracket 1 2 1:1", 2, "expected: bracket"),
    ("dim 2\nbracket 1 2 = 1", 2, "not K:COEFF"),
    ("dim 2\nbracket 1 2 = 1:1 1:2", 2, "repeated target"),
    ("dim 2\nbracket 1 2 = 1:0.5", 2, "not an integer or p/q"),
    ("dim 2\nbracket 1 2 = 1:1e3", 2, "not an integer or p/q"),
    ("dim 2\nbracket 1 2 = 1:1/0", 2, "zero denominator"),
])
def test_malformed_input_reports_the_offending_line(text, lineno, needle):
    with pytest.raises(FileFormatError, match=needle) as exc:
        parse_algebra(text)
    assert exc.value.lineno == lineno


def test_missing_dim_has_no_line_number():
    with pytest.raises(FileFormatError, match="missing dim") as exc:
        parse_algebra("# only a comment\n")
    assert exc.value.lineno is None


def test_fileformat_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_algebra("dim nope")


def test_value_keyword_is_not_a_bracket_directive():
    with pytest.raises(FileFormatError, match="unknown directive"):
        parse_algebra("dim 2\nvalue 1 1 = 1:1\n")
    with pytest.raises(FileFormatError, match="unknown directive"):
        parse_bilinear("dim 2\nbracket 1 1 = 1:1\n")
