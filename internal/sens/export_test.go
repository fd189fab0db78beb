package sens

// AnalyzeReference exposes the scalar estimator to the external tests.
var AnalyzeReference = analyzeReference
