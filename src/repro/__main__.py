"""``python -m repro`` entry point."""

from repro.cli import main

raise SystemExit(main())
