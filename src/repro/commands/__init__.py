"""The ``hdpsr`` subcommands, one module per command family; ``repro.cli``
assembles them into the parser."""
