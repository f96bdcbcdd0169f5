//! Empty stand-in: the root package declares `parking_lot` and uses nothing
//! from it.
