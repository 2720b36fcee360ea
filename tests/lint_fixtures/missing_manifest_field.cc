// Planted violation [manifest]: 'left_out' is a data member of a
// class that defines stateManifest(), but the manifest never
// registers it.

class FixtureMissingField
{
  public:
    persist::StateManifest stateManifest() const;

  private:
    int covered = 0;
    int left_out = 0;
};

persist::StateManifest
FixtureMissingField::stateManifest() const
{
    persist::StateManifest m("FixtureMissingField");
    DOLOS_MF_P(m, covered);
    return m;
}
