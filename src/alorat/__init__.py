"""Anomaly diagnosis for multivariate time series built on low-rank
regularized self-attention: detection via a rank-based score on the
attention spectrum, localization via closed-form input-to-output
contribution weights, plus evaluation metrics, synthetic data, and a
numerical verifier for the unrolled algebraic forms of the encoder."""
