// Package stats provides the small numeric toolkit the analysis layer
// needs: means, geometric means, percentiles, and byte formatting
// (FormatBytes).
//
// Everything is allocation-light and deterministic — pure functions of
// their inputs with no global state — so the analyses and shape checks
// built on top inherit the repo-wide reproducibility guarantee for free.
// Percentile-style functions sort copies rather than their arguments;
// callers' slices are never reordered.
package stats
