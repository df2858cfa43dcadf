"""iconclassify: classify descriptions of early modern religious imagery
into hierarchical Iconclass codes via keyword, vector, hybrid, and
retrieval-augmented search, with hierarchical evaluation metrics."""

__version__ = "0.1.0"
