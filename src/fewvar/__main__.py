"""``python -m fewvar``: the ``fewvar`` command."""

from fewvar.cli import main

raise SystemExit(main())
