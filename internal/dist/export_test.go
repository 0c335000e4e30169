package dist

// BodySlots is bodySlots, for the external tests.
const BodySlots = bodySlots
