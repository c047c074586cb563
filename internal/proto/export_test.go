package proto

// KindNames exposes the wire table to the external test package.
var KindNames = kindNames[:]
