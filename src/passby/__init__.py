"""Clustering of roadside vehicle audio via spectral embeddings and incremental reseeding."""
