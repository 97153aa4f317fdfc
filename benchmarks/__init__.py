"""End-to-end and per-layer benchmark of samplernn; see NOTES.md."""
