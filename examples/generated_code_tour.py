"""A tour of the code the transformation generates (Figures 2-5 of the paper).

Defines the paper's sample class ``X`` (with its collaborators ``Y`` and
``Z``), transforms it, and prints the generated interfaces, local
implementations, one proxy and both factories — the Python rendering of the
paper's Figures 3, 4 and 5.  The printed text is not a picture of the
generated classes: it is what the transformation executed to create them.

Run with:  python examples/generated_code_tour.py
"""

from __future__ import annotations

from repro import ApplicationTransformer
from repro.policy import all_local_policy


# --- Figure 2: the sample application class X (plus collaborators) ----------

class Y:
    K = 42

    def __init__(self, base):
        self.base = base

    def n(self, j):
        return self.base + j


class Z:
    def __init__(self, seed):
        self.seed = seed

    def q(self, i):
        return self.seed * i


class X:
    z = Z(Y.K)

    def __init__(self, y):
        self.y = y

    def m(self, j):
        return self.y.n(j)

    @staticmethod
    def p(i):
        return X.z.q(i)


SHOWN_ARTIFACTS = (
    "X_O_Int",            # Figure 3: instance interface
    "X_O_Local",          # Figure 3: non-remote implementation
    "X_O_Proxy",          # Figure 3: proxy (one for every transport: the binding names it)
    "X_C_Int",            # Figure 4: class (static members) interface
    "X_C_Local",          # Figure 4: singleton implementation
    "X_O_Factory",        # Figure 5: object factory (make / init)
    "X_C_Factory",        # Figure 5: class factory (discover / clinit)
)


def main() -> None:
    app = ApplicationTransformer(all_local_policy()).transform([X, Y, Z])
    sources = app.emit_sources("X")

    for name in SHOWN_ARTIFACTS:
        print("=" * 72)
        print(f"# {name}")
        print("=" * 72)
        print(sources[name])
        print()

    # And show that the generated code actually runs:
    y = app.new("Y", 5)
    x = app.new("X", y)
    print("x.m(3)              ->", x.m(3), "(original:", X(Y(5)).m(3), ")")
    print("statics('X').p(2)   ->", app.statics("X").p(2), "(original:", X.p(2), ")")


if __name__ == "__main__":
    main()
