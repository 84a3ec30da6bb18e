"""Every way a `.poly` or `.circuit` document can be refused.

Each case pins the line number and the leading words of the message, so a
change to the readers cannot silently move or reword an error."""

import re

import pytest

from fewvar.algebra import parse_poly
from fewvar.circuit import parse_circuit

POLY = "vars=2 field=Q\n"
CIRCUIT = "fewvar-circuit v1\nvars=2 field=Q s=1 k=1\n"
TERM = CIRCUIT + "term scale=1\n"
FACTOR = TERM + "factor support=0\n"

# (parser, document, pattern the message must start with)
BAD_DOCUMENTS = {
    # .poly header
    "poly-empty": (parse_poly, "", r"empty document: missing `vars=\.\.\. field=\.\.\.` header"),
    "poly-only-comments": (parse_poly, "# nothing\n\n   \n", r"empty document"),
    "poly-no-vars": (parse_poly, "field=Q\ncoeff 1 ;", r"line 1: header must declare"),
    "poly-no-field": (parse_poly, "vars=2\n", r"line 1: header must declare"),
    "poly-bad-vars": (parse_poly, "vars=x field=Q", r"line 1: bad header: invalid literal for int\(\)"),
    "poly-negative-vars": (parse_poly, "vars=-1 field=Q", r"line 1: bad header: vars must be nonnegative"),
    "poly-bad-field": (parse_poly, "vars=2 field=R", r"line 1: bad header: unknown field tag 'R'"),
    "poly-bad-modulus": (parse_poly, "vars=2 field=GF(x)", r"line 1: bad header: invalid literal for int\(\)"),
    "poly-nonprime": (parse_poly, "vars=2 field=GF(8)", r"line 1: bad header: modulus 8 is not prime"),
    "poly-header-after-comment": (parse_poly, "# c\n\nvars=2 field=GF(8)", r"line 3: bad header: modulus 8"),
    "poly-header-bare-token": (parse_poly, "vars=2 field=Q typo", r"line 1: expected key=value, got 'typo'"),
    "poly-header-repeated-key": (parse_poly, "vars=2 field=Q vars=3 typo", r"line 1: repeated key 'vars'"),
    "poly-header-unknown-key": (parse_poly, "# c\nvars=2 field=Q s=1", r"line 2: unknown key 's'"),
    # .poly body
    "poly-not-coeff": (parse_poly, POLY + "term scale=1", r"line 2: expected a `coeff` line"),
    "poly-no-semicolon": (parse_poly, POLY + "coeff 1 0:1", r"line 2: missing `;` separator"),
    "poly-bad-coeff": (parse_poly, POLY + "coeff x ; 0:1", r"line 2: bad coefficient: invalid literal"),
    "poly-zero-denominator": (parse_poly, POLY + "coeff 1/0 ; 0:1", r"line 2: bad coefficient: "),
    "poly-gf-denominator": (parse_poly, "vars=1 field=GF(7)\ncoeff 1/7 ;", r"line 2: bad coefficient: denominator divisible by 7"),
    "poly-bad-token": (parse_poly, POLY + "coeff 1 ; 0:y", r"line 2: bad monomial token '0:y'"),
    "poly-bare-token": (parse_poly, POLY + "coeff 1 ; 0", r"line 2: bad monomial token '0'"),
    "poly-var-out-of-range": (parse_poly, POLY + "coeff 1 ; 5:1", r"line 2: variable 5 out of range for num_vars=2"),
    "poly-negative-var": (parse_poly, POLY + "coeff 1 ; -1:1", r"line 2: negative variable index -1"),
    "poly-negative-exponent": (parse_poly, POLY + "coeff 1 ; 0:1\ncoeff 1 ; 1:-1", r"line 3: negative exponent -1 for variable 1"),
    # each monomial error once more with two tokens, the first one good:
    # one token takes the reader's short path, two its general one
    "poly-bad-token-second": (parse_poly, POLY + "coeff 1 ; 0:1 1:y", r"line 2: bad monomial token '1:y'"),
    "poly-bare-token-second": (parse_poly, POLY + "coeff 1 ; 0:1 1", r"line 2: bad monomial token '1'"),
    "poly-var-out-of-range-second": (parse_poly, POLY + "coeff 1 ; 0:1 5:1", r"line 2: variable 5 out of range for num_vars=2"),
    "poly-negative-var-second": (parse_poly, POLY + "coeff 1 ; 0:1 -1:1", r"line 2: negative variable index -1"),
    "poly-negative-exponent-second": (parse_poly, POLY + "coeff 1 ; 0:1 1:-1", r"line 2: negative exponent -1 for variable 1"),
    "poly-negative-var-zero-exponent": (parse_poly, POLY + "coeff 1 ; -1:0", r"line 2: negative variable index -1"),
    "poly-bad-token-after-negative-var": (parse_poly, POLY + "coeff 1 ; -1:1 0:y", r"line 2: bad monomial token '0:y'"),
    "poly-bad-coeff-before-bad-token": (parse_poly, POLY + "coeff  x  ; 0:y", r"line 2: bad coefficient: invalid literal for int\(\) with base 10: 'x'$"),
    "poly-line-after-comments": (parse_poly, "# c\n" + POLY + "\n# d\ncoeff x ; 0:1 # e", r"line 5: bad coefficient"),
    # .circuit header
    "circuit-empty": (parse_circuit, "", r"empty document: missing `fewvar-circuit v1` header"),
    "circuit-only-comments": (parse_circuit, "# nothing\n", r"empty document"),
    "circuit-magic": (parse_circuit, "something else\nvars=1 field=Q s=1 k=1", r"line 1: expected `fewvar-circuit v1`, got 'something else'"),
    "circuit-no-declaration": (parse_circuit, "fewvar-circuit v1\n# only a comment\n", r"missing `vars=\.\.\. field=\.\.\. s=\.\.\. k=\.\.\.` line"),
    "circuit-no-vars": (parse_circuit, "fewvar-circuit v1\nfield=Q s=1 k=1", r"line 2: header must declare vars="),
    "circuit-no-field": (parse_circuit, "fewvar-circuit v1\nvars=2 s=1 k=1", r"line 2: header must declare field="),
    "circuit-no-s": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q k=1", r"line 2: header must declare s="),
    "circuit-no-k": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1", r"line 2: header must declare k="),
    "circuit-bad-vars": (parse_circuit, "fewvar-circuit v1\nvars=x field=Q s=1 k=1", r"line 2: .*invalid literal for int\(\) with base 10: 'x'"),
    "circuit-bad-s": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=x k=1", r"line 2: .*invalid literal for int\(\) with base 10: 'x'"),
    "circuit-bad-k": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1 k=x", r"line 2: .*invalid literal for int\(\) with base 10: 'x'"),
    "circuit-bad-field": (parse_circuit, "fewvar-circuit v1\nvars=1 field=C s=1 k=1", r"line 2: .*unknown field tag 'C'"),
    "circuit-nonprime": (parse_circuit, "fewvar-circuit v1\nvars=1 field=GF(9) s=1 k=1", r"line 2: .*modulus 9 is not prime"),
    "circuit-negative-vars": (parse_circuit, "fewvar-circuit v1\nvars=-2 field=Q s=1 k=1", r"line 2: bad header: vars must be nonnegative"),
    "circuit-negative-s": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=-1 k=1", r"line 2: bad header: declared_s must be nonnegative"),
    "circuit-negative-k": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1 k=-3", r"line 2: bad header: k must be nonnegative"),
    "circuit-negative-after-comment": (parse_circuit, "# c\nfewvar-circuit v1\n\nvars=2 field=Q s=-1 k=1", r"line 4: bad header: declared_s"),
    "circuit-declaration-bare-token": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1 k=1 extra", r"line 2: expected key=value, got 'extra'"),
    "circuit-declaration-repeated-key": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1 k=1 k=2", r"line 2: repeated key 'k'"),
    "circuit-declaration-unknown-key": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=1 k=1 t=3", r"line 2: unknown key 't'"),
    # .circuit terms and factors
    "circuit-no-scale": (parse_circuit, CIRCUIT + "term weight=1", r"line 3: term line needs scale="),
    "circuit-bad-scale": (parse_circuit, CIRCUIT + "term scale=x", r"line 3: bad scale: invalid literal"),
    "circuit-zero-scale-denominator": (parse_circuit, CIRCUIT + "term scale=1/0", r"line 3: bad scale: "),
    "circuit-gf-scale": (parse_circuit, "fewvar-circuit v1\nvars=1 field=GF(7) s=1 k=1\nterm scale=1/7", r"line 3: bad scale: denominator divisible by 7"),
    "circuit-term-bare-token": (parse_circuit, CIRCUIT + "term scale=2 x", r"line 3: expected key=value, got 'x'"),
    "circuit-term-repeated-key": (parse_circuit, CIRCUIT + "term scale=2 scale=3", r"line 3: repeated key 'scale'"),
    "circuit-term-unknown-key": (parse_circuit, CIRCUIT + "term scale=2 sacle=3", r"line 3: unknown key 'sacle'"),
    "circuit-no-support": (parse_circuit, TERM + "factor vars=0", r"line 4: factor line needs support="),
    "circuit-bad-support": (parse_circuit, TERM + "factor support=0,a", r"line 4: bad support: invalid literal"),
    "circuit-factor-bare-token": (parse_circuit, TERM + "factor support=0 junk", r"line 4: expected key=value, got 'junk'"),
    "circuit-factor-repeated-key": (parse_circuit, TERM + "factor support=0 support=1", r"line 4: repeated key 'support'"),
    "circuit-factor-unknown-key": (parse_circuit, TERM + "factor support=0 vars=1", r"line 4: unknown key 'vars'"),
    "circuit-unsorted-support": (parse_circuit, "fewvar-circuit v1\nvars=2 field=Q s=2 k=1\nterm scale=1\nfactor support=1,0", r"line 4: support \(1, 0\) must be strictly increasing"),
    "circuit-support-out-of-range": (parse_circuit, TERM + "factor support=5", r"line 4: factor support \(5,\) out of range for 2 variables"),
    "circuit-later-factor-out-of-range": (parse_circuit, FACTOR + "coeff 1 ;\nterm scale=1\nfactor support=1\nfactor support=7\ncoeff 1 ; 0:1", r"line 8: factor support \(7,\) out of range for 2 variables"),
    "circuit-earlier-error-wins": (parse_circuit, TERM + "factor support=5\ncoeff 1 ;\nfactor support=1\ncoeff x ; 0:1", r"line 4: factor support \(5,\) out of range for 2 variables"),
    "circuit-support-over-s": (parse_circuit, TERM + "factor support=0,1", r"line 4: factor support \(0, 1\) exceeds declared_s=1"),
    "circuit-factor-before-term": (parse_circuit, CIRCUIT + "factor support=0\ncoeff 1 ; 0:1", r"line 3: factor before any `term` line"),
    "circuit-coeff-before-term": (parse_circuit, CIRCUIT + "coeff 1 ;", r"line 3: coeff line outside a factor block"),
    "circuit-coeff-after-term": (parse_circuit, FACTOR + "coeff 1 ;\nterm scale=2\ncoeff 1 ;", r"line 7: coeff line outside a factor block"),
    "circuit-unrecognized": (parse_circuit, TERM + "bogus line", r"line 4: unrecognized line 'bogus line'"),
    "circuit-factor-no-semicolon": (parse_circuit, FACTOR + "coeff 1 0:1", r"factor at line 4: line 5: missing `;` separator"),
    "circuit-factor-bad-coeff": (parse_circuit, FACTOR + "coeff x ; 0:1", r"factor at line 4: line 5: bad coefficient"),
    "circuit-factor-bad-token": (parse_circuit, FACTOR + "coeff 1 ; 0:y", r"factor at line 4: line 5: bad monomial token '0:y'"),
    "circuit-factor-local-var": (parse_circuit, FACTOR + "coeff 1 ; 1:1", r"factor at line 4: line 5: variable 1 out of range for num_vars=1"),
    "circuit-factor-negative-exponent": (parse_circuit, FACTOR + "coeff 1 ; 0:-2", r"factor at line 4: line 5: negative exponent -2"),
    "circuit-factor-negative-var": (parse_circuit, FACTOR + "coeff 1 ; -1:1", r"factor at line 4: line 5: negative variable index -1"),
    "circuit-factor-bad-token-second": (parse_circuit, FACTOR + "coeff 1 ; 0:1 0:y", r"factor at line 4: line 5: bad monomial token '0:y'"),
    "circuit-factor-local-var-second": (parse_circuit, FACTOR + "coeff 1 ; 0:1 1:1", r"factor at line 4: line 5: variable 1 out of range for num_vars=1"),
    "circuit-factor-negative-exponent-second": (parse_circuit, FACTOR + "coeff 1 ; 0:1 0:-2", r"factor at line 4: line 5: negative exponent -2"),
    "circuit-factor-negative-var-second": (parse_circuit, FACTOR + "coeff 1 ; 0:1 -1:1", r"factor at line 4: line 5: negative variable index -1"),
    "circuit-lines-after-comments": (parse_circuit, "# c\nfewvar-circuit v1 # v1\n\nvars=2 field=Q s=1 k=1\nterm scale=1 # t\n# d\nfactor support=0\ncoeff x ;", r"factor at line 7: line 8: bad coefficient"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_malformed_document_is_refused_with_its_line(case):
    parse, text, pattern = BAD_DOCUMENTS[case]
    with pytest.raises(ValueError) as info:
        parse(text)
    assert re.match(pattern, str(info.value)), str(info.value)
