"""End-to-end benchmark: the offline flow, three stream regimes and a
tenant fleet, with per-layer attribution.  See README.md here."""
