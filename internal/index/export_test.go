package index

// Memoized reports whether e keeps a function decoded from its store —
// what Function and LoadFunction leave behind and Decode does not.
func Memoized(e *Entry) bool { return e.lazy.Load() != nil }
