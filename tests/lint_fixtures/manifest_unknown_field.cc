// Planted violation [manifest]: DOLOS_MF_CONST only stringifies its
// field, so the compiler accepts a registration naming no member at
// all. 'limit' left the class body but its registration stayed; the
// lint must name it.

class FixtureUnknownField
{
  public:
    persist::StateManifest stateManifest() const;

  private:
    int capacity = 0;
};

persist::StateManifest
FixtureUnknownField::stateManifest() const
{
    persist::StateManifest m("FixtureUnknownField");
    DOLOS_MF_CONST(m, capacity);
    DOLOS_MF_CONST(m, limit);
    return m;
}
