"""One end-to-end benchmark of the study pipeline; see README.md."""
