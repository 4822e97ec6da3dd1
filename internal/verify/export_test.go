package verify

// SortProblems exposes the report's canonical order to the external tests.
var SortProblems = sortProblems
