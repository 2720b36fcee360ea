// Planted violation [manifest]: stateManifest() registers the same
// field twice.

class FixtureDupField
{
  public:
    persist::StateManifest stateManifest() const;

  private:
    int field = 0;
};

persist::StateManifest
FixtureDupField::stateManifest() const
{
    persist::StateManifest m("FixtureDupField");
    DOLOS_MF_P(m, field);
    DOLOS_MF_P(m, field);
    return m;
}
