package stateskip

// AppliedVectors hands the bit-serial schedule oracle to the external
// tests, which drive decompressor.Schedule (a package that imports this
// one).
var AppliedVectors = (*Reduction).appliedVectors
